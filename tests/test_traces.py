import math

import numpy as np
import pytest

import graphloops.traces as traces
from graphloops import (EVEN, ODD, BipartiteGraph, Loop, LoopAlgebra,
                        loop_from_tokens, perron_frobenius)
from graphloops.ncpairings import free_poisson_moments, noncrossing_pairings
from graphloops.tangles import random_element, trace0_via_tangles
from graphloops.traces import (_phi_word_pairing, free_structure_report,
                               gram_matrix, gram_psd_check, inner_product,
                               phi_vertex, trace_k, usual_trace)


def test_phi_base_case(a3):
    g = a3.g
    x = a3.single_loop(loop_from_tokens(g, "e1 e1'"))
    assert phi_vertex(a3, x, "m") == pytest.approx(2 ** -0.25, rel=1e-10)
    with pytest.raises(ValueError):
        phi_vertex(a3, x, "l")          # parity mismatch is an error


def test_phi_vanishes_away_from_base():
    from graphloops import LoopAlgebra, builtin_graph, perron_frobenius
    g = builtin_graph("a5")
    alg = LoopAlgebra(g, perron_frobenius(g))
    x = alg.single_loop(loop_from_tokens(g, "e0 e0'"))   # based at v0
    assert phi_vertex(alg, x, "v2") == 0.0
    assert phi_vertex(alg, x, "v0") > 0.0


def test_phi_pairing_equals_recursion_all_small_loops(test_algebras):
    # every loop of length <= 8 on the three test graphs, both methods
    for alg in test_algebras.values():
        for level in range(0, 5):
            for shading in (EVEN, ODD):
                for lp in alg.basis(level, shading):
                    x = alg.single_loop(lp)
                    a = _phi_word_pairing(alg, lp.edges)
                    b = phi_vertex(alg, x, lp.base)
                    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_trace0_of_cup_is_delta(test_algebras):
    for alg in test_algebras.values():
        cv = trace_k(alg, 0, alg.cup())
        for v in alg.g.vertices_of_parity(EVEN):
            assert cv[v] == pytest.approx(alg.pf.delta, rel=1e-10)


def test_usual_trace_closed_formula(a3):
    g = a3.g
    x = a3.single_loop(loop_from_tokens(g, "e1 e1' e2 e2'"))
    # frame pairs (1,4), (2,3) unmatched: opp(e2') = e2 differs from e1
    assert not usual_trace(a3, x).any()
    y = a3.single_loop(loop_from_tokens(g, "e1 e1'"))
    cv = usual_trace(a3, y)
    assert cv[g.vertex("m")] == pytest.approx(2 ** -0.25, rel=1e-12)
    z = a3.single_loop(loop_from_tokens(g, "e1 e1' e1 e1'"))
    # matched frame: sigma(e1) sigma(e1') = 1
    assert usual_trace(a3, z)[g.vertex("m")] == pytest.approx(1.0, rel=1e-12)


def test_trace_restriction_to_usual(test_algebras):
    for alg in test_algebras.values():
        for k in (1, 2, 3):
            for lp in alg.basis(k, EVEN):
                x = alg.single_loop(lp)
                got = trace_k(alg, k, alg.to_grade(x))
                want = usual_trace(alg, x)
                assert np.abs(got - want).max() <= 1e-9


def test_trace_property(test_algebras):
    rng = np.random.default_rng(11)
    for alg in test_algebras.values():
        for k in (1, 2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            a = random_element(alg, k, shading, rng)
            b = random_element(alg, k + 1, shading, rng)
            d = (trace_k(alg, k, alg.wedge(k, a, b))
                 - trace_k(alg, k, alg.wedge(k, b, a)))
            assert np.abs(d).max() <= 1e-9


def test_trace_scales_by_delta_under_inclusion(test_algebras):
    rng = np.random.default_rng(12)
    for alg in test_algebras.values():
        for k in (1, 2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            y = random_element(alg, k, -shading, rng)
            lhs = trace_k(alg, k, alg.include_step(y))
            rhs = alg.pf.delta * trace_k(alg, k - 1, y)
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_markov_property(test_algebras):
    rng = np.random.default_rng(13)
    for alg in test_algebras.values():
        for k in (2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            e_k = alg.jones_projection(k, tower=True)
            for lvl in (k - 1, k, k + 1):
                y = random_element(alg, lvl, -shading, rng)
                lhs = alg.pf.delta * trace_k(alg, k, alg.wedge(
                    k, alg.include_step(y), e_k))
                rhs = trace_k(alg, k - 1, y)
                assert np.abs(lhs - rhs).max() <= 1e-9


def test_jones_sandwich_is_conditional_expectation(test_algebras):
    rng = np.random.default_rng(14)
    for alg in test_algebras.values():
        for k in (2, 3):
            shading = EVEN if k % 2 == 0 else ODD
            e_k = alg.jones_projection(k, tower=True)
            for lvl in (k - 1, k):
                y = random_element(alg, lvl, -shading, rng)
                x = alg.include_step(y)
                lhs = alg.wedge(k, alg.wedge(k, e_k, x), e_k)
                rhs = alg.wedge(k, alg.include_step(
                    alg.include_step(alg.expect_step(y))), e_k)
                assert (lhs - rhs).norm_inf() <= 1e-9


def test_cup_moments_match_free_poisson(test_algebras):
    for alg in test_algebras.values():
        moments = free_poisson_moments(alg.pf.delta, 8)
        cup = alg.cup()
        for v in alg.g.vertices_of_parity(EVEN):
            x = alg.vertex_element(v)
            for n in range(1, 9):
                x = alg.wedge(0, x, cup)
                got = trace_k(alg, 0, x)[v]
                assert got == pytest.approx(moments[n], rel=1e-9)


def test_cup_moments_match_materialized_powers(test_algebras):
    # the pair-row route against cup^n built by wedge and traced whole
    for alg in test_algebras.values():
        cup = alg.cup()
        for v in alg.g.vertices_of_parity(EVEN):
            got, x = traces.cup_moments(alg, v, 8), alg.vertex_element(v)
            for n in range(1, 9):
                x = alg.wedge(0, x, cup)
                assert got[n] == pytest.approx(trace_k(alg, 0, x)[v], rel=1e-12)


def test_pair_blocks_split_unevenly_agree(monkeypatch):
    # v2 of a4 has two cup rows of unequal weight, so a block matched to
    # the wrong coefficients shows.  At 13 pair rows a block, phi(cup^4) and
    # phi(cup^5) take the 4 and 8 rows of cup^2 and cup^3 against cup^2's 4,
    # 3 a block (3 + 1 and 3 + 3 + 2), and the Gram of the 5 level-2 loops
    # 2 + 2 + 1
    from graphloops import builtin_graph
    g = builtin_graph("a4")
    alg, v = LoopAlgebra(g, perron_frobenius(g)), g.vertex("v2")
    base, words = alg.loop_words(2, EVEN)
    words = words[base == v]

    def run():
        return (traces.cup_moments(alg, v, 9),
                traces._gram(alg, v, words, alg._sigma[1]))

    want = run()
    monkeypatch.setattr(traces, "_PAIR_BLOCK", 13)
    got = run()
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)


def test_cup_moments_wedge_no_more_than_half_powers(s4, monkeypatch):
    # cup^9 at the centre of s4 has 4^9 rows; only powers up to cup^5 are built
    sizes, wedge = [], LoopAlgebra.wedge

    def spy(self, *args):
        out = wedge(self, *args)
        sizes.append(len(out.base))
        return out

    monkeypatch.setattr(LoopAlgebra, "wedge", spy)
    traces.cup_moments(s4, s4.g.vertices_of_parity(EVEN)[0], 9)
    assert max(sizes) == 4 ** 5


def test_catalan_moments_on_a2(a2):
    # delta = 1: Tr0((e e')^n) = Catalan(n)
    from graphloops.ncpairings import catalan
    x = a2.vertex_element("v")
    lp = a2.single_loop(loop_from_tokens(a2.g, "e e'"))
    for n in range(1, 7):
        x = a2.wedge(0, x, lp)
        assert trace_k(a2, 0, x)[a2.g.vertex("v")] == pytest.approx(
            catalan(n), rel=1e-10)


# -- inner products and positivity ------------------------------------------


def test_inner_product_reversal_pairing(a3):
    g = a3.g
    x = a3.single_loop(loop_from_tokens(g, "e1 e1' e2 e2'"))
    rev = a3.involution(x)
    # <x, x-reversed> = prod sigma over the loop = 1 (opposites cancel)
    ip = inner_product(a3, x, rev)
    assert ip[g.vertex("m")] == pytest.approx(1.0, rel=1e-12)
    # the loop is not its own reversal, so <x, x> vanishes
    assert not inner_product(a3, x, x).any()


def ref_inner_product(alg, a, b):
    """The loop-by-loop dict pairing the array one replaced: each loop of a
    meets its reversal in b, weighted by prod sigma over the loop."""
    values = {}
    for lp, ca in a.terms.items():
        back = tuple(e ^ 1 for e in reversed(lp.edges))
        cb = b.terms.get(Loop(lp.base, back))
        if cb is None:
            continue
        w = 1.0
        for e in lp.edges:
            w *= alg.pf.sigma(e)
        values[lp.base] = values.get(lp.base, 0.0) + ca.conjugate() * cb * w
    return values


def _complexify(alg, x, rng):
    return alg.element({lp: c + 1j * rng.standard_normal()
                        for lp, c in x.terms.items()},
                       level=x.level, shading=x.shading)


@pytest.mark.parametrize("name", ["a2", "a3", "s4", "a5"])
def test_inner_product_matches_dict_reference(name):
    from graphloops import LoopAlgebra, builtin_graph, perron_frobenius
    g = builtin_graph(name)
    alg = LoopAlgebra(g, perron_frobenius(g))
    rng = np.random.default_rng(16)
    for level in (0, 1, 2, 3):
        for shading in (EVEN, ODD):
            a = random_element(alg, level, shading, rng)
            # b holds some reversals of a's loops, and loops of its own
            b = alg.involution(a).scale(0.5) + random_element(alg, level,
                                                               shading, rng)
            ca, cb = _complexify(alg, a, rng), _complexify(alg, b, rng)
            # exact unless both sides are complex: numpy multiplies two
            # complex arrays with fused multiply-adds, CPython does not
            for x, y, rel in ((a, b, 0.0), (ca, b, 0.0), (a, cb, 0.0),
                              (ca, cb, 1e-14)):
                got = inner_product(alg, x, y)
                want = np.zeros(g.n_vertices, dtype=got.dtype)
                for v, c in ref_inner_product(alg, x, y).items():
                    want[v] = c
                assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_vertex_values_are_arrays_on_the_output_parity(test_algebras):
    # every vertex-valued result: one entry per vertex, real or complex as
    # its input, 0 at the vertices of the other parity
    rng = np.random.default_rng(17)
    for alg in test_algebras.values():
        parity = np.array(alg.g.parity)
        for level in (1, 2):
            for shading in (EVEN, ODD):
                real = random_element(alg, level, shading, rng)
                for x in (real, _complexify(alg, real, rng)):
                    results = [(trace_k(alg, k, x), shading * (-1) ** k)
                               for k in range(level + 1)]
                    results += [(usual_trace(alg, x), shading),
                                (inner_product(alg, x, x), shading),
                                (trace0_via_tangles(alg, x), shading)]
                    for values, out in results:
                        assert values.shape == (alg.g.n_vertices,)
                        assert values.dtype == x.coeff.dtype
                        assert not values[parity != out].any()
                        assert values[parity == out].any()


def test_inner_product_of_cup_is_delta(test_algebras):
    for alg in test_algebras.values():
        cup = alg.cup()
        ip = inner_product(alg, cup, cup)
        for v in alg.g.vertices_of_parity(EVEN):
            assert ip[v] == pytest.approx(alg.pf.delta, rel=1e-10)


def test_gram_level0_is_mu(test_algebras):
    for alg in test_algebras.values():
        for v in alg.g.vertices_of_parity(EVEN):
            basis, mat = gram_matrix(alg, v, 0)
            assert mat.shape == (1, 1)
            assert mat[0, 0] == pytest.approx(alg.pf.mu[v], rel=1e-10)


def test_gram_psd_and_faithful(test_algebras):
    for name, alg in test_algebras.items():
        for k in (1, 2):
            report = gram_psd_check(alg, k)
            assert report["pass"], (name, k, report)


def test_gram_psd_check_slices_one_walk_per_vertex():
    # the check walks the loops of a shading once and slices them by base
    # vertex; each slice must give the spectrum of `gram_matrix` there
    from graphloops import LoopAlgebra, builtin_graph, perron_frobenius
    g = builtin_graph("a6")
    alg = LoopAlgebra(g, perron_frobenius(g))
    for k in (1, 2, 3):
        for shading in (EVEN, ODD):
            report = gram_psd_check(alg, k, shading)
            assert report["pass"]
            for v in g.vertices_of_parity(shading):
                basis, mat = gram_matrix(alg, v, k)
                row = report["vertices"][g.vertex_names[v]]
                assert row["dim"] == len(basis)
                assert row["min_eig"] == np.linalg.eigvalsh(
                    0.5 * (mat + mat.T))[0]


def test_gram_fault_injection_fails(a3):
    # flip the sign of the positively oriented sigmas only; a global sign
    # flip would cancel in the even products, so the fault must break the
    # sigma(e) sigma(e-opp) = 1 structure to be visible
    bad = lambda e: (-1.0 if e % 2 == 0 else 1.0) * a3.pf.sigma(e)
    report = gram_psd_check(a3, 1, sigma=bad)
    assert not report["pass"]


def test_free_structure_dimensions(s4):
    report = free_structure_report(s4, nmax=4)
    assert report["pass"]
    dims = [row["dim_new_generators"] for row in report["rows"]]
    assert dims == [1, 1, 2, 5]
    for row in report["rows"]:
        assert row["tl_dim"] == row["catalan"]


def test_free_structure_needs_delta_two(a3):
    with pytest.raises(ValueError):
        free_structure_report(a3, nmax=2)


def test_free_structure_dimensions_at_degree_five(s4):
    # the degree-5 Gram spans nine decades of singular values; the rounding
    # floor, not a fixed 1e-8 cut, is the rank rule that keeps all of them
    report = free_structure_report(s4, nmax=5)
    assert report["pass"]
    assert [row["dim_new_generators"] for row in report["rows"]] == [1, 1, 2, 5, 14]
    assert [row["tl_dim"] for row in report["rows"]] == [1, 2, 5, 14, 42]


def _algebra(vertices, edges):
    g = BipartiteGraph.build(vertices, edges)
    return LoopAlgebra(g, perron_frobenius(g))


STAR5 = ([("c", "+")] + [(f"p{i}", "-") for i in range(5)],
         [(f"e{i}", "c", f"p{i}") for i in range(5)])
K33 = ([(f"a{i}", "+") for i in range(3)] + [(f"b{j}", "-") for j in range(3)],
       [(f"e{i}{j}", f"a{i}", f"b{j}") for i in range(3) for j in range(3)])


def _diagrams(alg, n):
    return [alg.tl_element(p) for p in noncrossing_pairings(2 * n)]


def _pairwise_tl_gram(alg, elems):
    """The Gram entry by entry: the grade-0 trace of x_i* wedge_0 x_j at
    every vertex, averaged with weights mu over the even vertices."""
    mu = alg._mu * (np.array(alg.g.parity) == EVEN)
    gram = np.empty((len(elems), len(elems)))
    for i, x in enumerate(elems):
        xd = alg.involution(x)
        for j, y in enumerate(elems):
            gram[i, j] = mu @ trace_k(alg, 0, alg.wedge(0, xd, y)) / mu.sum()
    return gram


@pytest.mark.parametrize("graph, nmax", [("s4", 4), (STAR5, 3), (K33, 3)],
                         ids=["s4", "star5", "k33"])
def test_tl_gram_kernel_matches_pairwise_reference(s4, graph, nmax):
    # delta = 2, sqrt 5 and 3; K_{3,3} has three even vertices
    alg = s4 if graph == "s4" else _algebra(*graph)
    for n in range(1, nmax + 1):
        elems = _diagrams(alg, n)
        got, want = traces._tl_gram(alg, elems), _pairwise_tl_gram(alg, elems)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n


def test_tl_gram_diagonal_equals_exact_sum_of_its_terms():
    # the entry of the diagram with the most loops on the five-leaf star at
    # degree 4: 625 loops, 390,625 products c_a K[a, b] c_b at the centre
    alg = _algebra(*STAR5)
    elems = _diagrams(alg, 4)
    i = max(range(len(elems)), key=lambda i: len(elems[i].base))
    x = elems[i]
    (v,) = alg.g.vertices_of_parity(EVEN)
    kernel = traces._gram(alg, v, x.words, alg._sigma[1])
    exact = math.fsum((np.outer(x.coeff, x.coeff) * kernel).ravel()) / alg._mu[v]
    got = traces._tl_gram(alg, elems)[i, i]
    assert len(x.base) == 625
    assert abs(got - exact) <= 1e-14 * abs(exact)


def test_free_structure_reads_one_loop_gram_per_degree(s4, monkeypatch):
    # no wedge, and one phi row per pair of loops at the centre per degree:
    # 4^2 + 16^2 + 64^2 + 256^2
    rows, wedges = [], []
    phi, wedge = traces._phi_words, LoopAlgebra.wedge
    monkeypatch.setattr(traces, "_phi_words",
                        lambda w, s: rows.append(len(w)) or phi(w, s))
    monkeypatch.setattr(LoopAlgebra, "wedge",
                        lambda self, *a: wedges.append(a) or wedge(self, *a))
    assert free_structure_report(s4, nmax=4)["pass"]
    assert (len(wedges), sum(rows)) == (0, 69_904)
