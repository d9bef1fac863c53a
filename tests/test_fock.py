import functools
import itertools
import math
import operator
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from graphloops import (EVEN, ODD, LoopAlgebra, builtin_graph, loop_from_tokens,
                        perron_frobenius)
from graphloops.elements import Loop, _frame
from graphloops.fock import (ANNIHILATE, C, CREATE, FockSpace,
                             _interior, _vacuum_values, _walk,
                             commutator_diagnostics, homomorphism_residual,
                             oracle_check_trace, pk_commutation_residual)
from graphloops.ncpairings import free_poisson_moments
from graphloops.tangles import random_element
from graphloops.traces import _phi_word
from test_random_graphs import bipartite_graphs
from test_walk_order import path_trie


# -- operator-product references: word programs as scipy CSR matrices --------

_LETTERS = weakref.WeakKeyDictionary()


def letter_csr(space, code):
    """One letter code as a CSR matrix, read off the PathBasis arrays:
    create(e) parent to child, annihilate(e) child to parent with weight
    ||e||^2, and c(e) = create(e) + annihilate(e-opp).  Cached per space."""
    cache = _LETTERS.setdefault(space, {})
    if code not in cache:
        cache[code] = _letter_csr(space, code)
    return cache[code]


def _letter_csr(space, code):
    b, n = space.basis, len(space.basis)
    kind, e = divmod(code, 2 * space.alg.g.n_base_edges)

    def ladder(e, up):
        kids = np.flatnonzero(b.first == e)
        ends = (kids, b.parent[kids]) if up else (b.parent[kids], kids)
        w = np.full(len(kids), 1.0 if up else space.alg.pf.norm_sq(e))
        return sp.csr_matrix((w, ends), shape=(n, n))

    if kind == C:
        return (ladder(e, True) + ladder(space.alg.g.opp(e), False)).tocsr()
    return ladder(e, kind == CREATE)


def word_csr(space, codes):
    """The product of a row of letter codes, left to right."""
    out = sp.identity(len(space.basis), format="csr")
    for code in codes:
        out = out @ letter_csr(space, code)
    return out


def program_csr(space, prog):
    """sum_r coeff[r] times the product of row r's letters."""
    n = len(space.basis)
    out = sp.csr_matrix((n, n))
    for codes, coeff in zip(prog.codes.tolist(), prog.coeff.tolist()):
        out = out + coeff * word_csr(space, codes)
    return out.tocsr()


def letter(space, kind, e):
    return kind * 2 * space.alg.g.n_base_edges + e


def map_dense(index_map, n):
    """An IndexMap as a dense matrix: column src[i] sends weight to dst[i]."""
    out = np.zeros((n, n))
    for src, dst, w in index_map.parts:
        out[dst, src] += w
    return out


def apply_word(space, edges, vec):
    """c(e_1) ... c(e_n) vec, one CSR matvec per letter, right to left."""
    for e in reversed(edges):
        vec = letter_csr(space, letter(space, C, e)) @ vec
    return vec


def vacuum_expectation(space, op, v, word_len):
    """<v, op v>, the diagonal entry at basis path v, exact only when the
    truncation covers the operator's word length."""
    assert word_len <= space.basis.depth
    return float(op[v, v])


def phi_frame_csr(space, op, n):
    """phi_frame_operator's sum, read off the CSR diagonal."""
    b = space.basis
    row = slice(b.offsets[n], b.offsets[n + 1])
    return float(b.norm_sq[row] ** 2 @ op.diagonal()[row]) / space.alg.pf.delta ** n


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
            assert np.array_equal(map_dense(space.create(e), n), up)
            assert np.array_equal(map_dense(space.annihilate(e), n), down)
            for kind, want in ((CREATE, up), (ANNIHILATE, down)):
                got = letter_csr(space, letter(space, kind, e)).toarray()
                assert np.array_equal(got, want)
            # the benchmark's fock.op_nnz reads these: one per map entry
            assert space.create(e).nnz == space.annihilate(e).nnz == up.sum()
            assert space.c(e).nnz == letter_csr(space, letter(space, C, e)).nnz
        for m in (-2, 0, 1, depth, depth + 3):
            want = [i for i, (_, es) in enumerate(paths) if len(es) <= m]
            assert list(space.basis.interior_indices(m)) == want
        for i, (_, edges) in enumerate(paths):
            want = math.prod(pf.norm_sq(e) for e in edges)
            assert space.basis.norm_sq[i] == pytest.approx(want, rel=1e-15)
        with pytest.raises(ValueError):
            space.phi_frame_operator(space.c_word([0]), depth + 1)


def test_annihilate_create_relation(test_algebras):
    # ann(e) create(g) = [e == g] ||e||^2 on the composable domain
    for alg in test_algebras.values():
        space = FockSpace(alg, 3)
        g = alg.g
        for e in g.oriented_edges:
            for f in g.oriented_edges:
                prod = word_csr(space, [letter(space, ANNIHILATE, e),
                                        letter(space, CREATE, f)])
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
        c_e = program_csr(space, space.c_word([e]))
        c_opp = program_csr(space, space.c_word([a3.g.opp(e)]))
        lhs = float((c_e @ xi * weights) @ eta)
        rhs = float((xi * weights) @ (c_opp @ eta))
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
                        space, program_csr(space, space.c_word(lp.edges)),
                        lp.base, len(lp.edges))
                    assert abs(chain - word) <= 1e-12 * max(abs(chain),
                                                            abs(word)), lp


def test_suffix_walk_matches_letter_by_letter_chains(test_algebras):
    # the oracle's block walk reads the same values as one chain of
    # matrix-vector products per loop
    for alg in test_algebras.values():
        space = FockSpace(alg, 6)
        for level in range(4):
            for shading in (EVEN, ODD):
                base, words = alg.loop_words(level, shading)
                got = _vacuum_values(space, base, words)
                for lp, value in zip(alg.basis(level, shading), got):
                    vacuum = np.zeros(len(space.basis))
                    vacuum[lp.base] = 1.0
                    assert value == apply_word(space, lp.edges,
                                               vacuum)[lp.base], lp


def _loop_groups(alg, max_len):
    return [alg.loop_words(level, shading)
            for level in range(max_len // 2 + 1) for shading in (EVEN, ODD)]


@pytest.mark.parametrize("name", ["a2", "a3", "s4", "a5"])
def test_half_depth_walk_equals_full_depth_walk(name):
    # a component that can still return to the vacuum never leaves the
    # paths of length <= L/2, so the shallow space gives the same bits
    g = builtin_graph(name)
    alg = LoopAlgebra(g, perron_frobenius(g))
    half, full = FockSpace(alg, 5), FockSpace(alg, 10)
    for base, words in _loop_groups(alg, 10):
        assert np.array_equal(_vacuum_values(half, base, words),
                              _vacuum_values(full, base, words))


def _walk_values(space, base, words, prune):
    key, path, value = _walk(space, C * len(space.alg._src) + words,
                             np.arange(len(base)), base, np.ones(len(base)),
                             prune=prune)
    got = np.zeros(len(base))
    home = path == base[key]
    got[key[home]] = value[home]
    return got


@pytest.mark.parametrize("name", ["a2", "a3", "s4", "a5"])
def test_pruned_walk_equals_unpruned_walk(name):
    # a dropped entry sits on a path too long to return, and it never shares
    # a (row, path) sum with a live one, so pruning changes no bit
    g = builtin_graph(name)
    alg = LoopAlgebra(g, perron_frobenius(g))
    space = FockSpace(alg, 5)
    for base, words in _loop_groups(alg, 10):
        assert np.array_equal(_walk_values(space, base, words, True),
                              _walk_values(space, base, words, False))


def test_walk_in_chunks_equals_one_block(s4, monkeypatch):
    space = FockSpace(s4, 4)
    groups = _loop_groups(s4, 8)
    whole = [_vacuum_values(space, base, words) for base, words in groups]
    # three rows per block: every group of more than three loops is chunked
    monkeypatch.setattr("graphloops.fock.BASIS_CAP", 3 * len(space.basis))
    for (base, words), want in zip(groups, whole):
        assert np.array_equal(_vacuum_values(space, base, words), want)


def test_fock_moments_at_depth_n_equal_depth_2n(test_algebras):
    # the moments subcommand reads cup^k at the vacuum for k <= n on a
    # space of depth n; twice that depth must give the same bits
    n = 7
    for alg in test_algebras.values():
        v0 = alg.g.vertices_of_parity(EVEN)[0]
        columns = []
        for depth in (n, 2 * n):
            space = FockSpace(alg, depth)
            columns.append(space.vacuum_moments(space.cup_operator(), v0, n))
        assert columns[0] == columns[1]


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
        cup = program_csr(space, space.cup_operator())
        moments = free_poisson_moments(alg.pf.delta, depth // 2)
        for v in alg.g.vertices_of_parity(EVEN):
            walked = space.vacuum_moments(space.cup_operator(), v, depth // 2)
            vec = np.zeros(len(space.basis))
            vec[v] = 1.0
            for n in range(1, depth // 2 + 1):
                vec = cup @ vec
                got = vec[v]
                assert got == pytest.approx(moments[n], rel=1e-9)
                assert walked[n] == pytest.approx(moments[n], rel=1e-9)


def test_vacuum_expectation_truncation_independent(a3):
    # expectations of length-2k words agree between depth K and K + 1
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    for depth in (4, 5):
        space = FockSpace(a3, depth)
        op = program_csr(space, space.c_word(lp.edges))
        val = vacuum_expectation(space, op, lp.base, len(lp.edges))
        assert val == pytest.approx(_phi_word(a3, lp.edges), abs=1e-12)


def test_phi1_of_included_operator(test_algebras):
    for alg in test_algebras.values():
        space = FockSpace(alg, 6)
        for lp in alg.basis(1, EVEN) + alg.basis(2, EVEN):
            y = space.c_word(lp.edges)
            included = space.include_operator(y, EVEN)
            got = space.phi_frame_operator(included, 1)
            want = space.phi_frame_operator(y, 0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            got = phi_frame_csr(space, program_csr(space, included), 1)
            want = phi_frame_csr(space, program_csr(space, y), 0)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_cup_decomposition_on_even_interior(a3):
    # cup restricted to even-to-even paths equals
    # 2 sum sigma Re(l(e) l(e-opp)) + delta + (1 - P_vertex)
    depth = 6
    space = FockSpace(a3, depth)
    g, pf = a3.g, a3.pf
    n = len(space.basis)
    cup = program_csr(space, space.cup_operator())
    lower = sp.csr_matrix((n, n))
    for e in g.positive_edges():
        pair = word_csr(space, [letter(space, CREATE, e),
                                letter(space, CREATE, g.opp(e))])
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
                assert np.array_equal(vec, _xi_csr(space, k, v))


def _xi_csr(space, k, v):
    """(sum over e from v of sigma(e) create(e) create(e-opp))^k at the
    vacuum of v, one CSR matvec per letter."""
    g, pf = space.alg.g, space.alg.pf
    vec = np.zeros(len(space.basis))
    vec[v] = 1.0
    for _ in range(k):
        vec = sum(pf.sigma(e) * word_csr(space, [letter(space, CREATE, e),
                                                 letter(space, CREATE, g.opp(e))])
                  @ vec for e in g.edges_from(v))
    return vec


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
            adj = _weighted_adjoint(space, program_csr(space, space.c_element(a, t)))
            rhs = program_csr(space, space.c_element(alg.involution(a), t))
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
                op = space.c_element(x, n)
                want = phi_frame(alg, x, n)
                assert space.phi_frame_operator(op, n) == pytest.approx(
                    want, abs=1e-9)
                assert phi_frame_csr(space, program_csr(space, op), n) == \
                    pytest.approx(want, abs=1e-9)


def test_pure_frame_words_commute_with_included_loops(test_algebras):
    # relative-commutant elements commute with twice-included grade-0 loops
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


# -- the walk against the operator products ----------------------------------

def _csc(block, n, width):
    col, path, value = block
    return sp.csc_matrix((value, (path, col)), shape=(n, width))


def walk_error(space, lhs, rhs, word_len):
    """The largest entry of the CSR products' interior columns, and the
    largest gap between them and the walk: the walk of each side's program
    product and the residual block of `_interior`."""
    n = len(space.basis)
    cols = np.arange(len(space.basis.interior_indices(space.basis.depth - word_len)))
    X, Y = (functools.reduce(operator.matmul, progs) for progs in (lhs, rhs))
    got, want = [], []
    for prog, factors in ((X, lhs), (Y, rhs)):
        got.append(_csc(space.apply(prog, cols, cols, np.ones(len(cols))),
                        n, len(cols)))
        ref = functools.reduce(operator.matmul,
                               [program_csr(space, f) for f in factors])
        want.append(ref.tocsc()[:, cols])
    got.append(_csc(_interior(space, X, Y, word_len), n, len(cols)))
    want.append(want[0] - want[1])
    return (max(abs(w).max() for w in want),
            max(abs(a - b).max() for a, b in zip(got, want)))


def _walk_cases(alg, depth, levels, ks):
    """(kind, space, lhs, rhs, word length): c_loop pairs against their
    wedge and cup against the nested cup on a space of `depth`, and the pk
    commutators on a space of depth 4k + 4, where the interior holds paths
    that the annihilators reach."""
    space = FockSpace(alg, depth)
    for t in (0, 1, 2):
        shading = EVEN if t % 2 == 0 else ODD
        rows = [(lvl, w) for lvl in levels if lvl >= max(t, 1)
                for w in alg.loop_words(lvl, shading)[1][:3]]
        for (la, wa), (lb, wb) in itertools.product(rows, repeat=2):
            if 2 * (la + lb) > depth:
                continue
            a, b = (alg.single_loop(Loop(alg.g.src(w[0]), tuple(w.tolist())))
                    for w in (wa, wb))
            yield "pair", space, [space.c_loop(wa, t), space.c_loop(wb, t)], \
                [space.c_element(alg.wedge(t, a, b), t)], 2 * (la + lb)
    cup, cupcup = space.cup_operator(), space.nested_cup_operator()
    yield "cup", space, [cup, cupcup], [cupcup, cup], 6
    for k in ks:
        space = FockSpace(alg, 4 * k + 4)
        words = alg.loop_words(k, EVEN if k % 2 == 0 else ODD)[1]
        frames = words[_frame(words, k, np.ones(len(alg._src))) != 0][:2]
        for w in alg.loop_words(1, EVEN)[1][:2]:
            included, parity = space.c_word(w), EVEN
            for _ in range(k):
                included = space.include_operator(included, parity)
                parity = -parity
            for u in frames:
                z = space.c_loop(u, k)
                yield "pk", space, [z, included], [included, z], 4 * k + 2


def assert_walk_equals_csr(cases):
    # every case within 1e-14 of its scale; each kind of case has one whose
    # interior columns are not all zero
    seen = set()
    for kind, space, lhs, rhs, word_len in cases:
        scale, err = walk_error(space, lhs, rhs, word_len)
        assert err <= 1e-14 * scale, (kind, err, scale)
        if scale > 0.0:
            seen.add(kind)
    assert seen == {"pair", "cup", "pk"}


@pytest.mark.parametrize("name", ["a2", "a3", "s4", "a5"])
def test_walk_residual_equals_operator_product(name):
    g = builtin_graph(name)
    alg = LoopAlgebra(g, perron_frobenius(g))
    assert_walk_equals_csr(_walk_cases(alg, 10, (1, 2), (1, 2)))


@given(bipartite_graphs())
@settings(max_examples=10, deadline=None)
def test_walk_residual_equals_operator_product_on_random_graphs(g):
    alg = LoopAlgebra(g, perron_frobenius(g))
    assert_walk_equals_csr(_walk_cases(alg, 6, (1,), (1,)))
