import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphloops import (EVEN, ODD, Loop, LoopAlgebra, builtin_graph,
                        perron_frobenius)
from graphloops.elements import _merge
from graphloops.ncpairings import noncrossing_pairings
from graphloops.tangles import (Layer, Slot, TangleProgram, TangleSyntaxError,
                                closure_program, diagram_program,
                                equivalence_check, eval_tangle, parse_tangle,
                                random_element, rotation_program,
                                trace0_via_tangles, wedge_program)
from graphloops.traces import trace_k
from test_random_graphs import bipartite_graphs

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (standard library only)

CAP_PROGRAM = """
tangle close_one(A: 1-) -> 0- {
  load A;
  cap 1;
}
"""


def test_parse_cap_to_level_zero():
    prog = parse_tangle(CAP_PROGRAM)
    assert prog.out_level == 0
    assert [l.kind for l in prog.layers] == ["load", "cap"]


def test_parse_range_error():
    bad = """
    tangle oops(A: 2+) -> 2+ {
      load A;
      cap 5;
    }
    """
    with pytest.raises(TangleSyntaxError, match="out of range"):
        parse_tangle(bad)


def test_parse_arity_mismatch():
    bad = """
    tangle oops(A: 2+) -> 1+ {
      load A;
    }
    """
    with pytest.raises(TangleSyntaxError, match="declared output"):
        parse_tangle(bad)


def test_parse_unknown_input():
    with pytest.raises(TangleSyntaxError, match="unknown input"):
        parse_tangle("tangle t(A: 1+) -> 1+ { load B; }")


def test_roundtrip_source():
    text = """tangle w(a: 2+, b: 1+) -> 2+ {
  load a;
  tensor b;
  cap 4;
  cup 2-;
  cap 2;
  rotate;
}"""
    prog = parse_tangle(text)
    again = parse_tangle(prog.source())
    assert again == prog


def _circle(level, shading):
    layers = (Layer("load", "a"), Layer("cup", 1, shading), Layer("cap", 1))
    return TangleProgram("circle", (Slot("a", level, shading),), level,
                         shading, layers)


def _zigzag(level, shading, flavor):
    if flavor == "right":
        layers = (Layer("load", "a"), Layer("cup", 2, shading), Layer("cap", 1))
    else:
        layers = (Layer("load", "a"), Layer("cup", 1, shading), Layer("cap", 2))
    return TangleProgram("zigzag", (Slot("a", level, shading),), level,
                         shading, layers)


def test_circle_gives_delta(test_algebras):
    rng = np.random.default_rng(20)
    for alg in test_algebras.values():
        x = random_element(alg, 2, EVEN, rng)
        got = eval_tangle(alg, _circle(2, EVEN), {"a": x})
        assert (got - x.scale(alg.pf.delta)).norm_inf() <= 1e-10


def test_zigzags_are_identities(test_algebras):
    rng = np.random.default_rng(21)
    for alg in test_algebras.values():
        for lvl in (1, 2, 3):
            x = random_element(alg, lvl, EVEN, rng)
            for flavor in ("right", "left"):
                got = eval_tangle(alg, _zigzag(lvl, EVEN, flavor), {"a": x})
                assert (got - x).norm_inf() <= 1e-10


def test_wedge_programs_match_direct(test_algebras):
    rng = np.random.default_rng(22)
    for alg in test_algebras.values():
        for t, la, lb in ((0, 1, 1), (0, 1, 2), (1, 1, 1), (1, 2, 1), (2, 2, 2)):
            shading = EVEN if t % 2 == 0 else ODD
            a = random_element(alg, la, shading, rng)
            b = random_element(alg, lb, shading, rng)
            prog = wedge_program(t, la, lb, shading)
            got = eval_tangle(alg, prog, {"a": a, "b": b})
            assert (got - alg.wedge(t, a, b)).norm_inf() <= 1e-9


def test_usual_mult_program_matches_direct(test_algebras):
    rng = np.random.default_rng(23)
    for alg in test_algebras.values():
        for k in (1, 2):
            a = random_element(alg, k, EVEN, rng)
            b = random_element(alg, k, EVEN, rng)
            got = eval_tangle(alg, wedge_program(k, k, k, EVEN),
                              {"a": a, "b": b})
            assert (got - alg.usual_mult(a, b)).norm_inf() <= 1e-9


def test_diagram_programs_match_loop_formula(test_algebras):
    for alg in test_algebras.values():
        for two_k in (2, 4, 6):
            for pairing in noncrossing_pairings(two_k):
                got = eval_tangle(alg, diagram_program(pairing, EVEN), {})
                want = alg.tl_element(pairing)
                assert (got - want).norm_inf() <= 1e-10


def test_trace_closures_match_trace0(test_algebras):
    rng = np.random.default_rng(24)
    for alg in test_algebras.values():
        for lvl in (1, 2, 3):
            x = random_element(alg, lvl, EVEN, rng)
            got = trace0_via_tangles(alg, x)
            want = trace_k(alg, 0, x)
            assert np.abs(got - want).max() <= 1e-9


def test_trace0_rotation_invariance(test_algebras):
    rng = np.random.default_rng(25)
    for alg in test_algebras.values():
        x = random_element(alg, 2, EVEN, rng)
        a = trace_k(alg, 0, alg.rotate(x))
        b = trace_k(alg, 0, x)
        assert np.abs(a - b).max() <= 1e-9


def test_rotation_program_matches_primitive(test_algebras):
    rng = np.random.default_rng(26)
    for alg in test_algebras.values():
        x = random_element(alg, 2, EVEN, rng)
        got = eval_tangle(alg, rotation_program(2, EVEN), {"a": x})
        assert (got - alg.rotate(x)).norm_inf() <= 1e-10


def test_rotation_cyclic_commutativity_via_programs(test_algebras):
    rng = np.random.default_rng(27)
    for alg in test_algebras.values():
        a = random_element(alg, 1, EVEN, rng)
        b = random_element(alg, 1, EVEN, rng)
        prog = TangleProgram(
            "rot_prod",
            (Slot("a", 1, EVEN), Slot("b", 1, EVEN)), 2, EVEN,
            (Layer("load", "a"), Layer("tensor", "b"), Layer("rotate")))
        got = eval_tangle(alg, prog, {"a": a, "b": b})
        assert (got - alg.wedge(0, b, a)).norm_inf() <= 1e-9


def test_equivalence_bracketings(a3):
    # (a b) c versus a (b c) as tangle programs
    p1 = TangleProgram(
        "left", (Slot("a", 1, EVEN), Slot("b", 1, EVEN), Slot("c", 1, EVEN)),
        3, EVEN,
        (Layer("load", "a"), Layer("tensor", "b"), Layer("tensor", "c")))
    p2 = TangleProgram(
        "right", (Slot("a", 1, EVEN), Slot("b", 1, EVEN), Slot("c", 1, EVEN)),
        3, EVEN,
        (Layer("load", "a"), Layer("tensor", "b"), Layer("tensor", "c")))
    ok, worst = equivalence_check(a3, p1, p2)
    assert ok and worst <= 1e-12


def test_equivalence_commuting_layers(a3):
    # cap-left then cup-right == cup-right then cap-left (disjoint supports)
    p1 = TangleProgram("clcr", (Slot("a", 2, EVEN),), 2, EVEN,
                       (Layer("load", "a"), Layer("cap", 1),
                        Layer("cup", 3, EVEN)))
    p2 = TangleProgram("crcl", (Slot("a", 2, EVEN),), 2, EVEN,
                       (Layer("load", "a"), Layer("cup", 5, EVEN),
                        Layer("cap", 1)))
    ok, worst = equivalence_check(a3, p1, p2)
    assert ok, worst


def test_equivalence_detects_difference(a3):
    p1 = rotation_program(1, EVEN, times=0)
    p2 = TangleProgram("circle_extra", (Slot("a", 1, EVEN),), 1, EVEN,
                       (Layer("load", "a"), Layer("cup", 1, EVEN),
                        Layer("cap", 1)))
    ok, worst = equivalence_check(a3, p1, p2)
    assert not ok and worst > 0.1


def test_naturality_program_concatenation(test_algebras):
    # gluing programs = feeding one evaluation into the next
    rng = np.random.default_rng(28)
    for alg in test_algebras.values():
        x = random_element(alg, 2, EVEN, rng)
        first = TangleProgram("first", (Slot("a", 2, EVEN),), 3, EVEN,
                              (Layer("load", "a"), Layer("cup", 2, EVEN)))
        second = TangleProgram("second", (Slot("b", 3, EVEN),), 2, EVEN,
                               (Layer("load", "b"), Layer("cap", 2)))
        combined = TangleProgram(
            "combined", (Slot("a", 2, EVEN),), 2, EVEN,
            first.layers + second.layers[1:])
        via_two = eval_tangle(alg, second,
                              {"b": eval_tangle(alg, first, {"a": x})})
        direct = eval_tangle(alg, combined, {"a": x})
        assert (via_two - direct).norm_inf() <= 1e-10


def test_closure_program_cap_order():
    prog = closure_program(((1, 4), (2, 3)), 2, EVEN)
    caps = [l.arg for l in prog.layers if l.kind == "cap"]
    assert caps == [2, 1]


def test_eval_validates_input_declaration(a3):
    prog = wedge_program(0, 1, 1, EVEN)
    rng = np.random.default_rng(29)
    a = random_element(a3, 1, EVEN, rng)
    with pytest.raises(ValueError):
        eval_tangle(a3, prog, {"a": a})              # missing b
    b = random_element(a3, 2, EVEN, rng)
    with pytest.raises(ValueError):
        eval_tangle(a3, prog, {"a": a, "b": b})      # wrong level


def test_hand_built_layers_are_checked_against_the_boundary(a3):
    x = random_element(a3, 2, EVEN, np.random.default_rng(30))
    for layer in (Layer("cup", 0), Layer("cup", 6), Layer("cup", 9),
                  Layer("cap", 0), Layer("cap", 4)):
        prog = TangleProgram("bad", (Slot("a", 2, EVEN),), 2, EVEN,
                             (Layer("load", "a"), layer))
        with pytest.raises(ValueError, match=f"layer 2 \\({layer.kind} "
                                             f"{layer.arg}\\)"):
            eval_tangle(a3, prog, {"a": x})
    for layers in ((Layer("cap", 1),), (Layer("rotate"),), (Layer("cup", 2),)):
        prog = TangleProgram("bad", (), 1, EVEN, layers)
        with pytest.raises(ValueError, match="layer 1 .* 0 points"):
            eval_tangle(a3, prog, {})
    with pytest.raises(ValueError, match="no boundary"):
        eval_tangle(a3, TangleProgram("empty", (), 0, EVEN, ()), {})


def test_hand_built_layers_are_checked_for_kind_and_slot(a3):
    # parse_tangle rejects each of these; a program built in code must not
    # be evaluated as something else (flip as rotate, a second load as tensor)
    rng = np.random.default_rng(31)
    a, b = (random_element(a3, 1, EVEN, rng) for _ in range(2))
    slot_a = (Slot("a", 1, EVEN),)
    cases = [
        (slot_a, (Layer("load", "a"), Layer("flip")), {"a": a},
         r"layer 2 \(flip\) is of no known kind"),
        (slot_a, (Layer("load", "a"), Layer("tensor", "b")), {"a": a},
         r"layer 2 \(tensor b\) reads an undeclared input"),
        (slot_a, (Layer("load", "a"), Layer("tensor", "b")), {"a": a, "b": b},
         r"layer 2 \(tensor b\) reads an undeclared input"),
        (slot_a + (Slot("b", 1, EVEN),), (Layer("load", "a"), Layer("load", "b")),
         {"a": a, "b": b}, r"layer 2 \(load b\) does not fit a boundary of 2"),
    ]
    for slots, layers, inputs, message in cases:
        prog = TangleProgram("bad", slots, 2, EVEN, layers)
        with pytest.raises(ValueError, match=message):
            eval_tangle(a3, prog, inputs)


# -- the dict evaluator as the reference -------------------------------------


def ref_eval_tangle(alg, prog, inputs):
    """The loop-by-loop dict evaluator the array one replaced: its state is
    {Loop | None: coeff}, None being the empty boundary with a free base,
    and every layer adds its output loops into a running dict sum."""
    g, pf = alg.g, alg.pf
    state = {None: 1.0}

    def insert_pair(lp, coeff, pos, shading, out):
        if lp is None:
            for v in g.vertices_of_parity(shading or prog.out_shading):
                for e in g.edges_from(v):
                    key = Loop(v, (e, g.opp(e)))
                    out[key] = out.get(key, 0.0) + coeff * pf.sigma(e)
            return
        rv = lp.base if pos == 1 else g.tgt(lp.edges[pos - 2])
        for e in g.edges_from(rv):
            edges = lp.edges[: pos - 1] + (e, g.opp(e)) + lp.edges[pos - 1:]
            key = Loop(g.src(edges[0]), edges)
            out[key] = out.get(key, 0.0) + coeff * pf.sigma(e)

    for layer in prog.layers:
        new = {}
        if layer.kind in ("load", "tensor"):
            x = inputs[layer.arg]
            for lp, c in state.items():
                for xl, xc in x.terms.items():
                    if lp is None:
                        key = xl
                    else:
                        right = g.tgt(lp.edges[-1]) if lp.edges else lp.base
                        if right != xl.base:
                            continue
                        key = Loop(lp.base, lp.edges + xl.edges)
                    new[key] = new.get(key, 0.0) + c * xc
        elif layer.kind == "cap":
            i = layer.arg
            for lp, c in state.items():
                e, f = lp.edges[i - 1], lp.edges[i]
                if f != g.opp(e):
                    continue
                edges = lp.edges[: i - 1] + lp.edges[i + 1:]
                key = Loop(g.src(edges[0]) if edges else lp.base, edges)
                new[key] = new.get(key, 0.0) + c * pf.sigma(e)
        elif layer.kind == "cup":
            for lp, c in state.items():
                insert_pair(lp, c, layer.arg, layer.shading, new)
        else:                                   # rotate
            for lp, c in state.items():
                factor = pf.mu[lp.base] / pf.mu[g.tgt(lp.edges[1])]
                key = Loop(g.tgt(lp.edges[1]), lp.edges[2:] + lp.edges[:2])
                new[key] = new.get(key, 0.0) + c * factor
        state = new
    terms = {}
    for lp, c in state.items():
        assert lp is not None and len(lp.edges) == 2 * prog.out_level
        if g.parity[lp.base] == prog.out_shading:
            terms[lp] = terms.get(lp, 0.0) + c
    return alg.element(terms, prog.out_level, prog.out_shading)


def assert_matches_reference(alg, prog, inputs):
    got = eval_tangle(alg, prog, inputs)
    want = ref_eval_tangle(alg, prog, inputs)
    assert (got.level, got.shading) == (want.level, want.shading)
    assert list(got.terms.items()) == list(want.terms.items())
    return got


def random_program(rng, shading, n_layers=8, max_points=8):
    """A program of random layers that fit the boundary, on inputs of
    level 0 to 2; it starts with load, tensor or an empty-boundary cup."""
    slots, layers = [], []

    def add_input(kind):
        slots.append(Slot(f"x{len(slots)}", int(rng.integers(0, 3)), shading))
        layers.append(Layer(kind, slots[-1].name))
        return 2 * slots[-1].level

    if rng.random() < 0.3:
        layers.append(Layer("cup", 1, shading if rng.random() < 0.5 else None))
        points = 2
    else:
        points = add_input(str(rng.choice(["load", "tensor"])))
    for _ in range(n_layers):
        kinds = ["tensor"] * (points + 4 <= max_points)
        kinds += ["cup"] * (points + 2 <= max_points)
        kinds += ["cap", "rotate"] * (points >= 2)
        kind = str(rng.choice(kinds))
        if kind == "tensor":
            points += add_input(kind)
        elif kind == "cup":
            layers.append(Layer("cup", int(rng.integers(1, points + 2))))
            points += 2
        elif kind == "cap":
            layers.append(Layer("cap", int(rng.integers(1, points))))
            points -= 2
        else:
            layers.append(Layer("rotate"))
    return TangleProgram("random", tuple(slots), points // 2, shading,
                         tuple(layers))


def random_inputs(alg, prog, rng, complex_slot=None):
    """Standard normal inputs; the named slot gets complex coefficients.
    Only one slot is complex: numpy may round a complex-by-complex product
    with a fused multiply-add where CPython does not."""
    inputs = {}
    for slot in prog.inputs:
        base, words = alg.loop_words(slot.level, slot.shading)
        coeff = rng.standard_normal(len(base))
        if slot.name == complex_slot:
            coeff = coeff + 1j * rng.standard_normal(len(base))
        inputs[slot.name] = _merge(slot.level, slot.shading, base, words, coeff)
    return inputs


def check_random_programs(alg, rng, count):
    for _ in range(count):
        shading = EVEN if rng.random() < 0.5 else ODD
        prog = random_program(rng, shading)
        names = [s.name for s in prog.inputs]
        complex_slot = str(rng.choice(names)) if names else None
        assert_matches_reference(alg, prog,
                                 random_inputs(alg, prog, rng, complex_slot))
        assert_matches_reference(alg, prog, random_inputs(alg, prog, rng))


@pytest.mark.parametrize("name", ["a2", "a3", "s4", "a5"])
def test_random_programs_equal_the_dict_reference(name):
    g = builtin_graph(name)
    check_random_programs(LoopAlgebra(g, perron_frobenius(g)),
                          np.random.default_rng(31), 40)


@given(bipartite_graphs(), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_random_programs_equal_the_dict_reference_on_random_graphs(g, seed):
    check_random_programs(LoopAlgebra(g, perron_frobenius(g)),
                          np.random.default_rng(seed), 6)


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_program_equals_the_dict_reference(s4, seed):
    # the algebra workload's tangle op: its program and inputs at this seed
    rng = random.Random(seed)
    prog = parse_tangle(workloads.tangle_program(rng))
    inputs = {name: s4.from_json_dict(workloads._element(3, rng))
              for name in ("x", "y")}
    got = assert_matches_reference(s4, prog, inputs)
    assert len(got.coeff) > 4 ** 5


def test_edge_programs_equal_the_dict_reference(test_algebras):
    rng = np.random.default_rng(32)
    for alg in test_algebras.values():
        # level-0 inputs, a first layer that is tensor, complex coefficients
        prog = TangleProgram(
            "level0", (Slot("a", 0, EVEN), Slot("b", 0, EVEN), Slot("c", 1, EVEN)),
            1, EVEN,
            (Layer("tensor", "a"), Layer("cup", 1), Layer("tensor", "b"),
             Layer("rotate"), Layer("tensor", "c"), Layer("cap", 2)))
        assert_matches_reference(alg, prog, random_inputs(alg, prog, rng, "a"))
        assert_matches_reference(alg, prog, random_inputs(alg, prog, rng, "c"))
        # a first cup shaded unlike the output gives zero
        prog = TangleProgram("odd_cup", (), 1, EVEN, (Layer("cup", 1, ODD),))
        assert not assert_matches_reference(alg, prog, {}).terms
        # caps down to level 0, along every pairing of six points
        x = random_element(alg, 3, ODD, rng)
        for pairing in noncrossing_pairings(6):
            assert_matches_reference(alg, closure_program(pairing, 3, ODD),
                                     {"a": x})
