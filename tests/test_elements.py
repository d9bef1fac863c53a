import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphloops import EVEN, ODD, Loop, loop_from_tokens, loop_tokens
from graphloops.ncpairings import noncrossing_pairings
from graphloops.tangles import random_element
from graphloops.traces import phi_frame


def big_T(alg, n, shading=EVEN):
    """Sum of all Catalan(n) non-crossing diagrams at level n."""
    x = alg.zero(n, shading)
    for pairing in noncrossing_pairings(2 * n):
        x = x + alg.tl_element(pairing, shading)
    return x


def all_loops(alg, max_level):
    out = []
    for level in range(max_level + 1):
        for shading in (EVEN, ODD):
            out.extend(alg.basis(level, shading))
    return out


# -- wedge ---------------------------------------------------------------


def test_wedge0_is_concatenation(a3):
    g = a3.g
    x = a3.single_loop(loop_from_tokens(g, "e1 e1'"))
    y = a3.single_loop(loop_from_tokens(g, "e2 e2'"))
    z = a3.wedge(0, x, y)
    assert z.terms == {loop_from_tokens(g, "e1 e1' e2 e2'"): 1.0}


def test_wedge0_different_bases_vanish(s4):
    from graphloops import LoopAlgebra, builtin_graph, perron_frobenius
    g5 = builtin_graph("a5")
    alg = LoopAlgebra(g5, perron_frobenius(g5))
    x = alg.single_loop(loop_from_tokens(g5, "e0 e0'"))       # based at v0
    y = alg.single_loop(loop_from_tokens(g5, "e2 e2'"))       # based at v2
    assert alg.wedge(0, x, y).norm_inf() == 0
    # shading mismatch is rejected outright
    odd = s4.single_loop(loop_from_tokens(s4.g, "e2' e2"))
    even = s4.single_loop(loop_from_tokens(s4.g, "e1 e1'"))
    with pytest.raises(ValueError):
        s4.wedge(0, even, odd)


def test_wedge1_matched_edge_factor(a3):
    # matched edge e1 carries 1/sigma(e1) = 2^{1/4}
    g = a3.g
    x = a3.single_loop(loop_from_tokens(g, "e1 e1'"))
    z = a3.wedge(1, x, x)
    lp = loop_from_tokens(g, "e1 e1'")
    assert z.terms[lp] == pytest.approx(2 ** 0.25, rel=1e-12)


def test_wedge_level_validation(a3):
    x = a3.vertex_element("m")
    with pytest.raises(ValueError):
        a3.wedge(1, x, x)


def test_wedge_associativity_exhaustive(a2, a3):
    for alg, max_level in ((a2, 3), (a3, 2)):
        for t in (0, 1, 2):
            shading = EVEN if t % 2 == 0 else ODD
            basis = [lp for lvl in range(max(t, 1), max_level + 1)
                     for lp in alg.basis(lvl, shading)]
            for la, lb, lc in itertools.product(basis, repeat=3):
                a, b, c = map(alg.single_loop, (la, lb, lc))
                lhs = alg.wedge(t, alg.wedge(t, a, b), c)
                rhs = alg.wedge(t, a, alg.wedge(t, b, c))
                assert (lhs - rhs).norm_inf() <= 1e-9


def test_wedge_associativity_s4_sampled(s4):
    rng = np.random.default_rng(0)
    for t in (0, 1, 2):
        shading = EVEN if t % 2 == 0 else ODD
        for lvl in (max(t, 1), t + 1):
            a = random_element(s4, lvl, shading, rng)
            b = random_element(s4, lvl, shading, rng)
            c = random_element(s4, lvl, shading, rng)
            lhs = s4.wedge(t, s4.wedge(t, a, b), c)
            rhs = s4.wedge(t, a, s4.wedge(t, b, c))
            assert (lhs - rhs).norm_inf() <= 1e-9 * max(1, lhs.norm_inf())


# -- involution ----------------------------------------------------------


def test_involution_palindromic_loop(a3):
    lp = loop_from_tokens(a3.g, "e1 e1' e1 e1'")
    x = a3.single_loop(lp)
    assert a3.involution(x).terms == x.terms


def test_involution_is_involutive(test_algebras):
    rng = np.random.default_rng(1)
    for alg in test_algebras.values():
        for level, shading in ((1, EVEN), (2, EVEN), (2, ODD)):
            a = random_element(alg, level, shading, rng)
            back = alg.involution(alg.involution(a))
            assert (back - a).norm_inf() <= 1e-12


def test_involution_antihomomorphism(test_algebras):
    rng = np.random.default_rng(2)
    for alg in test_algebras.values():
        for t in (0, 1, 2):
            shading = EVEN if t % 2 == 0 else ODD
            a = random_element(alg, t + 1, shading, rng)
            b = random_element(alg, t + 1, shading, rng)
            lhs = alg.involution(alg.wedge(t, a, b))
            rhs = alg.wedge(t, alg.involution(b), alg.involution(a))
            assert (lhs - rhs).norm_inf() <= 1e-9


# -- rotation -------------------------------------------------------------


def test_full_rotation_is_identity(test_algebras):
    for alg in test_algebras.values():
        for lp in alg.basis(2, EVEN):
            x = alg.single_loop(lp)
            assert (alg.rotate(x, times=2) - x).norm_inf() <= 1e-12


def test_cyclic_commutativity(test_algebras):
    rng = np.random.default_rng(3)
    for alg in test_algebras.values():
        for la, lb in ((1, 1), (1, 2), (2, 1)):
            a = random_element(alg, la, EVEN, rng)
            b = random_element(alg, lb, EVEN, rng)
            lhs = alg.rotate(alg.wedge(0, a, b), times=a.level)
            rhs = alg.wedge(0, b, a)
            assert (lhs - rhs).norm_inf() <= 1e-9


def test_big_T_fixed_by_rotation(a3, s4):
    for alg in (a3, s4):
        for n in (1, 2, 3, 4):
            t = big_T(alg, n)
            assert (alg.rotate(t) - t).norm_inf() <= 1e-9


def test_rotate_level0_rejected(a2):
    with pytest.raises(ValueError):
        a2.rotate(a2.vertex_element("v"))


# -- tower maps -----------------------------------------------------------


def test_include_step_of_unit_is_next_unit(test_algebras):
    for alg in test_algebras.values():
        unit0 = alg.unit(0, EVEN)
        got = alg.include_step(unit0)
        assert (got - alg.unit(1, ODD)).norm_inf() <= 1e-12


def test_include_a2_matches_display(a2):
    # include(vertex at the even end) = sigma(e') (e' e), the one-step unit
    got = a2.include_step(a2.vertex_element("v"))
    lp = loop_from_tokens(a2.g, "e' e")
    assert got.terms == pytest.approx({lp: 1.0})


def test_expect_include_roundtrip(test_algebras):
    rng = np.random.default_rng(4)
    for alg in test_algebras.values():
        for level, shading in ((0, EVEN), (1, ODD), (2, EVEN)):
            a = random_element(alg, level, shading, rng)
            if a.norm_inf() == 0:
                continue
            back = alg.expect_step(alg.include_step(a))
            assert (back - a).norm_inf() <= 1e-9


def test_expect_kills_unequal_outer_edges(s4):
    lp = loop_from_tokens(s4.g, "e1 e1' e2 e2'")
    shifted = s4.shift_base(s4.single_loop(lp), 2)   # starts e2, ends e1'
    assert s4.expect_step(shifted).norm_inf() == 0


def test_expect_factor_trivial_on_a2(a2):
    x = a2.include_step(a2.vertex_element("v"))
    back = a2.expect_step(x)
    assert back.terms == pytest.approx({Loop(a2.g.vertex("v"), ()): 1.0})


def test_expectation_bimodule_property(a3):
    rng = np.random.default_rng(5)
    n = 2
    x = random_element(a3, 1, ODD, rng)
    z = random_element(a3, 1, ODD, rng)
    y = random_element(a3, 2, EVEN, rng)
    lhs = a3.expect_step(
        a3.wedge(n, a3.wedge(n, a3.include_step(x), y), a3.include_step(z)))
    rhs = a3.wedge(n - 1, a3.wedge(n - 1, x, a3.expect_step(y)), z)
    assert (lhs - rhs).norm_inf() <= 1e-9


def test_inclusion_preserves_scalar_trace(test_algebras):
    rng = np.random.default_rng(6)
    for alg in test_algebras.values():
        for n in (1, 2, 3):
            shading = ODD if n % 2 else EVEN
            y = random_element(alg, n, -1 * (ODD if n % 2 else EVEN), rng)
            got = phi_frame(alg, alg.include_step(y), n)
            want = phi_frame(alg, y, n - 1)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# -- usual multiplication ---------------------------------------------------


def test_usual_unit_two_sided(test_algebras):
    rng = np.random.default_rng(7)
    for alg in test_algebras.values():
        for k in (1, 2, 3):
            u = alg.unit(k, EVEN)
            x = random_element(alg, k, EVEN, rng)
            assert (alg.usual_mult(u, x) - x).norm_inf() <= 1e-9
            assert (alg.usual_mult(x, u) - x).norm_inf() <= 1e-9


def _path_sum_unit(alg, k, shading):
    """Sum over length-k paths p of prod sigma(p_i) (p followed by its mirror)."""
    g, terms = alg.g, {}

    def walk(at, edges, weight):
        if len(edges) == k:
            back = tuple(g.opp(e) for e in reversed(edges))
            terms[Loop(g.src(edges[0]) if edges else at, edges + back)] = weight
            return
        for e in g.edges_from(at):
            walk(g.tgt(e), edges + (e,), weight * alg.pf.sigma(e))

    for v in g.vertices_of_parity(shading):
        walk(v, (), 1.0)
    return terms


def test_unit_is_the_identity_diagram(a3, s4):
    for alg in (a3, s4):
        for shading in (EVEN, ODD):
            for k in range(5):
                identity = tuple((j, 2 * k + 1 - j) for j in range(1, k + 1))
                u = alg.unit(k, shading)
                assert u.terms == alg.tl_element(identity, shading).terms
                assert u.terms == _path_sum_unit(alg, k, shading)


def test_empty_diagram_is_level0_unit(a3, s4):
    for alg in (a3, s4):
        t0 = big_T(alg, 0)
        assert (t0.level, t0.shading) == (0, EVEN)
        assert t0.terms == alg.unit(0, EVEN).terms
        assert t0.terms == {Loop(v, ()): 1.0
                            for v in alg.g.vertices_of_parity(EVEN)}


def test_usual_unit_weights_follow_pf(a3):
    # derived unit carries prod sigma(p_i) on the doubled path loop, which is
    # only the bare "(p, p)" sum when mu is constant
    u = a3.unit(1, EVEN)
    lp = loop_from_tokens(a3.g, "e1 e1'")
    assert u.terms[lp] == pytest.approx(2 ** -0.25, rel=1e-12)


def test_usual_associativity_random_triples(test_algebras):
    rng = np.random.default_rng(8)
    for alg in test_algebras.values():
        for k in (1, 2, 3):
            a, b, c = (random_element(alg, k, EVEN, rng) for _ in range(3))
            lhs = alg.usual_mult(alg.usual_mult(a, b), c)
            rhs = alg.usual_mult(a, alg.usual_mult(b, c))
            assert (lhs - rhs).norm_inf() <= 1e-9 * max(1, lhs.norm_inf())


# -- Temperley-Lieb elements -------------------------------------------------


def test_cup_formula(a2, a3):
    assert a2.cup().terms == pytest.approx(
        {loop_from_tokens(a2.g, "e e'"): 1.0})
    cup = a3.cup()
    assert cup.terms == pytest.approx({
        loop_from_tokens(a3.g, "e1 e1'"): 2 ** -0.25,
        loop_from_tokens(a3.g, "e2 e2'"): 2 ** -0.25,
    })


def test_crossing_pairing_rejected(a3):
    with pytest.raises(ValueError):
        a3.tl_element(((1, 3), (2, 4)))


def test_big_T1_is_cup(test_algebras):
    for alg in test_algebras.values():
        assert (big_T(alg, 1) - alg.cup()).norm_inf() == 0.0


def test_big_T2_support_is_union_of_diagrams(a3):
    t2 = big_T(a3, 2)
    parts = [a3.tl_element(p) for p in (((1, 2), (3, 4)), ((1, 4), (2, 3)))]
    union = set()
    for p in parts:
        union |= set(p.terms)
    assert set(t2.terms) == union


def test_loop_token_roundtrip(a3):
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    assert loop_tokens(a3.g, lp) == "e1 e1' e2 e2'"
    with pytest.raises(ValueError):
        loop_from_tokens(a3.g, "e1 e2")          # not composable
    assert loop_from_tokens(a3.g, "e1 e1' e2 e2'", "m") == lp
    with pytest.raises(ValueError, match="its base 'l'"):
        loop_from_tokens(a3.g, "e1 e1' e2 e2'", "l")  # starts at m


def test_element_json_roundtrip(a3):
    rng = np.random.default_rng(9)
    x = random_element(a3, 2, EVEN, rng)
    doc = a3.to_json_dict(x)
    back = a3.from_json_dict(doc)
    assert (back - x).norm_inf() <= 1e-12


# -- Jones projections -------------------------------------------------------


def test_jones_idempotent_and_selfadjoint(test_algebras):
    for alg in test_algebras.values():
        for k in (2, 3, 4):
            for tower in (False, True):
                e_k = alg.jones_projection(k, tower=tower)
                if tower:
                    sq = alg.wedge(k, e_k, e_k)
                else:
                    sq = alg.usual_mult(e_k, e_k)
                assert (sq - e_k).norm_inf() <= 1e-9
                assert (alg.involution(e_k) - e_k).norm_inf() <= 1e-12


def test_jones_requires_k_at_least_2(a3):
    with pytest.raises(ValueError):
        a3.jones_projection(1)


def test_tl_generator_relations(test_algebras):
    for alg in test_algebras.values():
        delta = alg.pf.delta
        for k in (3, 4):
            es = {i: alg.tl_generator(i, k) for i in range(1, k)}
            for i in range(1, k):
                sq = alg.usual_mult(es[i], es[i]) - es[i].scale(delta)
                assert sq.norm_inf() <= 1e-9
                for j in range(1, k):
                    if abs(i - j) == 1:
                        h = alg.usual_mult(alg.usual_mult(es[i], es[j]), es[i])
                        assert (h - es[i]).norm_inf() <= 1e-9
                    elif abs(i - j) >= 2:
                        comm = (alg.usual_mult(es[i], es[j])
                                - alg.usual_mult(es[j], es[i]))
                        assert comm.norm_inf() <= 1e-12


def test_grade_bridge_roundtrip_and_antihomomorphism(a3, s4):
    rng = np.random.default_rng(10)
    for alg in (a3, s4):
        for k in (2, 3):
            a = random_element(alg, k, EVEN, rng)
            b = random_element(alg, k, EVEN, rng)
            assert (alg.to_grade(alg.to_grade(a)) - a).norm_inf() <= 1e-12
            lhs = alg.wedge(k, alg.to_grade(a), alg.to_grade(b))
            rhs = alg.to_grade(alg.usual_mult(b, a))
            assert (lhs - rhs).norm_inf() <= 1e-9
            # unit to unit
        u = alg.unit(2, EVEN)
        assert (alg.to_grade(u) - u).norm_inf() <= 1e-9


def test_to_grade_is_half_rotation_at_even_level(a3, s4):
    rng = np.random.default_rng(11)
    for alg in (a3, s4):
        for k in (2, 4):
            x = random_element(alg, k, EVEN, rng)
            assert alg.to_grade(x).terms == alg.rotate(x, k // 2).terms


def test_negative_grade_rejected(a3):
    from graphloops.traces import trace_k
    x = a3.single_loop(loop_from_tokens(a3.g, "e1 e1'"))
    with pytest.raises(ValueError):
        a3.wedge(-1, x, x)
    with pytest.raises(ValueError):
        trace_k(a3, -1, x)
    with pytest.raises(ValueError):
        phi_frame(a3, x, -1)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_scaling_linearity_property(seed):
    from graphloops import builtin_graph, perron_frobenius, LoopAlgebra
    g = builtin_graph("a3")
    alg = LoopAlgebra(g, perron_frobenius(g))
    rng = np.random.default_rng(seed)
    a = random_element(alg, 1, EVEN, rng)
    b = random_element(alg, 1, EVEN, rng)
    c = float(rng.standard_normal())
    lhs = alg.wedge(0, a.scale(c), b)
    rhs = alg.wedge(0, a, b).scale(c)
    assert (lhs - rhs).norm_inf() <= 1e-9 * max(1.0, abs(c))
