import numpy as np
import pytest

from graphloops import EVEN, ODD, Loop, loop_from_tokens
from graphloops.ncpairings import free_poisson_moments
from graphloops.tangles import random_element, trace0_via_tangles
from graphloops.traces import (free_structure_report, gram_matrix,
                               gram_psd_check, inner_product, phi_vertex,
                               trace_k, usual_trace)


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
                    a = phi_vertex(alg, x, lp.base, "pairing")
                    b = phi_vertex(alg, x, lp.base, "recursive")
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
