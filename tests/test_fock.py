import math

import numpy as np
import pytest
import scipy.sparse as sp

from graphloops import EVEN, ODD, loop_from_tokens
from graphloops.fock import (FockSpace, _vacuum_values, commutator_diagnostics,
                             homomorphism_residual, oracle_check_trace)
from graphloops.ncpairings import free_poisson_moments
from graphloops.tangles import random_element
from graphloops.traces import _phi_word
from test_walk_order import path_trie


def apply_word(space, edges, vec):
    """c(e_1) ... c(e_n) vec, one letter at a time, right to left."""
    for e in reversed(edges):
        vec = space.c(e) @ vec
    return vec


def vacuum_expectation(space, op, v, word_len):
    """<v, op v>, the diagonal entry at basis path v, exact only when the
    truncation covers the operator's word length."""
    assert word_len <= space.basis.depth
    return float(op[v, v])


def test_path_basis_a2_depth2(a2):
    space = FockSpace(a2, 2)
    assert len(space.basis) == 6          # v, w, e, e', ee', e'e


def test_path_basis_counts_match_adjacency(test_algebras):
    for alg in test_algebras.values():
        g = alg.g
        a = g.adjacency()
        for depth in (0, 1, 3):
            space = FockSpace(alg, depth)
            expected = g.n_vertices
            power = np.eye(g.n_vertices)
            for _ in range(depth):
                power = power @ a
                expected += int(round(power.sum()))
            assert len(space.basis) == expected


@pytest.mark.parametrize("depth", [0, 1, 4])
def test_path_trie_matches_path_by_path_reference(a2, a3, s4, depth):
    # create, annihilate, the interior columns and the path weights read the
    # trie arrays; rebuild each one path by path from the tuple paths
    for alg in (a2, a3, s4):
        g, pf = alg.g, alg.pf
        space = FockSpace(alg, depth)
        paths = path_trie(alg, depth)[0]
        index = {p: i for i, p in enumerate(paths)}
        n = len(paths)
        assert len(space.basis) == n
        for v in range(g.n_vertices):
            assert paths[v] == (v, ())
        for e in g.oriented_edges:
            up, down = np.zeros((n, n)), np.zeros((n, n))
            for i, (start, edges) in enumerate(paths):
                head = g.src(edges[0]) if edges else start
                if len(edges) < depth and g.tgt(e) == head:
                    up[index[(g.src(e), (e,) + edges)], i] = 1.0
                if edges and edges[0] == e:
                    down[index[(g.tgt(e), edges[1:])], i] = pf.norm_sq(e)
            assert np.array_equal(space.create(e).toarray(), up)
            assert np.array_equal(space.annihilate(e).toarray(), down)
        for m in (-2, 0, 1, depth, depth + 3):
            want = [i for i, (_, es) in enumerate(paths) if len(es) <= m]
            assert list(space.basis.interior_indices(m)) == want
        for i, (_, edges) in enumerate(paths):
            want = math.prod(pf.norm_sq(e) for e in edges)
            assert space.basis.norm_sq[i] == pytest.approx(want, rel=1e-15)
        with pytest.raises(ValueError):
            space.phi_frame_operator(space.c(0), depth + 1)


def test_annihilate_create_relation(test_algebras):
    # ann(e) create(g) = [e == g] ||e||^2 on the composable domain
    for alg in test_algebras.values():
        space = FockSpace(alg, 3)
        g = alg.g
        for e in g.oriented_edges:
            for f in g.oriented_edges:
                prod = space.annihilate(e) @ space.create(f)
                if e != f:
                    worst = abs(prod).max() if prod.nnz else 0.0
                    assert worst <= 1e-15
                else:
                    diag = prod.diagonal()
                    for i, (start, edges) in enumerate(path_trie(alg, 3)[0]):
                        head = g.src(edges[0]) if edges else start
                        if head == g.tgt(e) and len(edges) < 3:
                            assert diag[i] == pytest.approx(alg.pf.norm_sq(e))


def test_c_adjoint_pairs_opposite_edge(a3):
    # <c(e) xi, eta> = <xi, c(e-opp) eta> in the weighted inner product
    space = FockSpace(a3, 4)
    weights = space.basis.norm_sq
    rng = np.random.default_rng(31)
    xi = rng.standard_normal(len(space.basis))
    eta = rng.standard_normal(len(space.basis))
    for e in a3.g.oriented_edges:
        lhs = float((space.c(e) @ xi * weights) @ eta)
        rhs = float((xi * weights) @ (space.c(a3.g.opp(e)) @ eta))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_vacuum_trace_oracle(test_algebras):
    for alg in test_algebras.values():
        report = oracle_check_trace(alg, max_len=6)
        assert report["pass"], report
        assert report["max_deviation"] <= 1e-12


def test_vector_chain_matches_word_operator(a3, s4):
    # the oracle reads <v, c(w) v> from c(w) applied to the vacuum vector;
    # it must equal the entry of the operator product c_word(w)
    for alg in (a3, s4):
        space = FockSpace(alg, 8)
        for level in range(5):
            for shading in (EVEN, ODD):
                for lp in alg.basis(level, shading):
                    vacuum = np.zeros(len(space.basis))
                    vacuum[lp.base] = 1.0
                    chain = apply_word(space, lp.edges, vacuum)[lp.base]
                    word = vacuum_expectation(
                        space, space.c_word(lp.edges), lp.base, len(lp.edges))
                    assert abs(chain - word) <= 1e-12 * max(abs(chain),
                                                            abs(word)), lp


def test_suffix_walk_matches_letter_by_letter_chains(test_algebras):
    # the oracle's shared-suffix walk reads the same vectors as one chain
    # of matrix-vector products per loop
    for alg in test_algebras.values():
        space = FockSpace(alg, 6)
        loops = [lp for level in range(4) for shading in (EVEN, ODD)
                 for lp in alg.basis(level, shading)]
        got = _vacuum_values(space, loops)
        for lp, value in zip(loops, got):
            vacuum = np.zeros(len(space.basis))
            vacuum[lp.base] = 1.0
            assert value == apply_word(space, lp.edges, vacuum)[lp.base], lp


def test_vacuum_trace_oracle_fault_injection(a3):
    # corrupt the pairing-side weights only: the oracle must catch it
    bad = lambda e: 1.25 * a3.pf.sigma(e)
    report = oracle_check_trace(a3, max_len=4, sigma=bad)
    assert not report["pass"]


def test_operator_homomorphism_small(test_algebras):
    # a product of two level-lvl elements is a word of 4 lvl letters, so the
    # level-3 case needs depth 12 to keep an interior column
    rng = np.random.default_rng(32)
    for alg in test_algebras.values():
        spaces = {8: FockSpace(alg, 8), 12: FockSpace(alg, 12)}
        for t in (0, 1, 2):
            shading = EVEN if t % 2 == 0 else ODD
            for lvl in (max(t, 1), t + 1):
                a = random_element(alg, lvl, shading, rng)
                b = random_element(alg, lvl, shading, rng)
                space = spaces[8 if 4 * lvl <= 8 else 12]
                assert homomorphism_residual(alg, t, a, b, space) <= 1e-9


def test_vacuum_moments_match_free_poisson(test_algebras):
    for alg in test_algebras.values():
        depth = 8
        space = FockSpace(alg, depth)
        cup = space.cup_operator()
        moments = free_poisson_moments(alg.pf.delta, depth // 2)
        for v in alg.g.vertices_of_parity(EVEN):
            vec = np.zeros(len(space.basis))
            vec[v] = 1.0
            for n in range(1, depth // 2 + 1):
                vec = cup @ vec
                got = vec[v]
                assert got == pytest.approx(moments[n], rel=1e-9)


def test_vacuum_expectation_truncation_independent(a3):
    # expectations of length-2k words agree between depth K and K + 1
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    for depth in (4, 5):
        space = FockSpace(a3, depth)
        op = space.c_word(lp.edges)
        val = vacuum_expectation(space, op, lp.base, len(lp.edges))
        assert val == pytest.approx(_phi_word(a3, lp.edges), abs=1e-12)


def test_phi1_of_included_operator(test_algebras):
    for alg in test_algebras.values():
        space = FockSpace(alg, 6)
        for lp in alg.basis(1, EVEN) + alg.basis(2, EVEN):
            y = space.c_word(lp.edges)
            got = space.phi_frame_operator(space.include_operator(y, EVEN), 1)
            want = space.phi_frame_operator(y, 0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_cup_decomposition_on_even_interior(a3):
    # cup restricted to even-to-even paths equals
    # 2 sum sigma Re(l(e) l(e-opp)) + delta + (1 - P_vertex)
    depth = 6
    space = FockSpace(a3, depth)
    g, pf = a3.g, a3.pf
    n = len(space.basis)
    cup = space.cup_operator()
    lower = sp.csr_matrix((n, n))
    for e in g.positive_edges():
        pair = space.create(e) @ space.create(g.opp(e))
        lower = lower + pf.sigma(e) * (pair + _weighted_adjoint(space, pair))
    ident = sp.identity(n, format="csr")
    proj = sp.csr_matrix((n, n))
    for v in g.vertices_of_parity(EVEN):
        proj = proj + sp.csr_matrix(([1.0], ([v], [v])), shape=(n, n))
    rhs = lower + pf.delta * ident + (ident - proj)
    def even_to_even(start, edges):
        end = g.tgt(edges[-1]) if edges else start
        return g.parity[start] == EVEN and g.parity[end] == EVEN

    paths = path_trie(a3, depth)[0]
    even_cols = [i for i, (start, edges) in enumerate(paths)
                 if len(edges) <= depth - 2 and even_to_even(start, edges)]
    even_rows = [i for i, (start, edges) in enumerate(paths)
                 if even_to_even(start, edges)]
    diff = (cup - rhs).tocsc()[:, even_cols].tocsr()[even_rows, :]
    assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-9


def _weighted_adjoint(space, op):
    w = space.basis.norm_sq
    dinv = sp.diags(1.0 / w)
    d = sp.diags(w)
    return (dinv @ op.conj().T @ d).tocsr()


def test_xi_norms(test_algebras):
    for alg in test_algebras.values():
        space = FockSpace(alg, 6)
        for v in alg.g.vertices_of_parity(EVEN):
            for k in (1, 2, 3):
                vec = space.xi_vector(k, v)
                assert space.vector_norm_sq(vec) == pytest.approx(
                    alg.pf.delta ** k, rel=1e-9)


def test_commutator_diagnostics(a2, a3, s4):
    rep = commutator_diagnostics(a2, depth=8)
    assert rep["commutator_interior_fro"] <= 1e-10
    for rep in (commutator_diagnostics(a3, depth=8),
                commutator_diagnostics(s4, depth=8)):
        assert rep["commutator_interior_fro"] > 0.1
        for row in rep["xi"]:
            assert row["abs_err"] <= 1e-9


def test_dagger_matches_weighted_operator_adjoint(test_algebras):
    # the element involution realizes the operator adjoint taken in the
    # weighted path inner product, at every grade
    rng = np.random.default_rng(41)
    for alg in test_algebras.values():
        space = FockSpace(alg, 8)
        for t, lvl in ((0, 1), (1, 1), (2, 2)):
            shading = EVEN if t % 2 == 0 else ODD
            a = random_element(alg, lvl, shading, rng)
            adj = _weighted_adjoint(space, space.c_element(a, t))
            rhs = space.c_element(alg.involution(a), t)
            cols = space.basis.interior_indices(8 - 2 * lvl)
            diff = (adj - rhs).tocsc()[:, cols]
            worst = abs(diff).max() if diff.nnz else 0.0
            assert worst <= 1e-9


def test_tower_weight_operator_vs_loop_formula(test_algebras):
    # the scalar tower weight computed path-by-path from the operator model
    # must reproduce the loop-level frame formula at every depth
    from graphloops.traces import phi_frame
    rng = np.random.default_rng(99)
    for alg in test_algebras.values():
        space = FockSpace(alg, 8)
        for n in (0, 1, 2):
            shading = EVEN if n % 2 == 0 else ODD
            for lvl in (max(n, 1), n + 1):
                x = random_element(alg, lvl, shading, rng)
                got = space.phi_frame_operator(space.c_element(x, n), n)
                want = phi_frame(alg, x, n)
                assert got == pytest.approx(want, abs=1e-9)


def test_pure_frame_words_commute_with_included_loops(test_algebras):
    # relative-commutant elements commute with twice-included grade-0 loops
    from graphloops.fock import pk_commutation_residual
    for alg in test_algebras.values():
        space = FockSpace(alg, 8)
        assert pk_commutation_residual(alg, space, k=2) <= 1e-10


def test_pk_residual_sees_a_missing_inclusion(test_algebras, monkeypatch):
    # with the tower inclusion replaced by the identity the pure frame words
    # no longer commute with the included loops; at the default depth the
    # residual must see that, so it cannot read 0 over no column
    monkeypatch.setattr(FockSpace, "include_operator",
                        lambda self, X, base_parity: X)
    for alg in test_algebras.values():
        assert commutator_diagnostics(alg)["pk_commutation_max"] >= 0.5


def test_residual_over_no_interior_column_is_an_error(a2):
    space = FockSpace(a2, 4)
    a = random_element(a2, 2, EVEN, np.random.default_rng(33))
    with pytest.raises(ValueError, match="no interior column"):
        homomorphism_residual(a2, 0, a, a, space)
    with pytest.raises(ValueError, match="no interior column"):
        commutator_diagnostics(a2, depth=4)


def test_nested_cup_weight_conventions_agree(test_algebras):
    for alg in test_algebras.values():
        space = FockSpace(alg, 4)
        space.nested_cup_operator()   # raises on mismatch
