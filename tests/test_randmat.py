import math

import numpy as np
import pytest

from graphloops import BipartiteGraph, LoopAlgebra, perron_frobenius
from graphloops.elements import Loop, loop_from_tokens
from graphloops.randmat import (DENSE, MATRIX_FREE, BlockModelSpec,
                                MatrixFreeModel, convergence_sweep,
                                engine_for, estimate_trace, estimate_traces,
                                loop_target, sample_model,
                                trend_non_increasing)


def test_dense_gaussian_stream_is_pinned():
    # values of the numpy SFC64 stream keyed on (seed, counter); every dense
    # `mc` row depends on them, so a change here moves those rows
    from graphloops._normals import normals
    want = {(7, 0): [-0.6105022430419922, 0.3520309031009674,
                     -0.36234205961227417, 2.0478034019470215,
                     -0.04275914281606674],
            (2026, 123456789): [0.48116958141326904, -2.1410529613494873,
                                0.2925471365451813, -0.37496909499168396]}
    for (seed, counter), values in want.items():
        expect = np.array(values, dtype=np.float32)
        got = normals(seed, counter, len(values))
        assert got.dtype == np.float32 and np.array_equal(got, expect)
        buf = np.empty(len(values), dtype=np.float32)
        assert normals(seed, counter, len(values), out=buf) is buf
        assert np.array_equal(buf, expect)


def test_block_dims_and_tr_d(a3):
    spec = BlockModelSpec(a3, 40, 40, seed=1)
    g = a3.g
    assert spec.M_v[g.vertex("m")] == round(40 * math.sqrt(2))
    assert spec.M_v[g.vertex("l")] == 40
    for v in range(g.n_vertices):
        assert abs(spec.tr_d(v) - a3.pf.mu[v]) <= \
            abs(spec.M_v[v] / spec.M - a3.pf.mu[v]) + 1e-15


def test_same_seed_reproduces(a3):
    spec = BlockModelSpec(a3, 8, 8, seed=77)
    m1 = sample_model(spec, 3)
    m2 = sample_model(spec, 3)
    for e in a3.g.positive_edges():
        assert np.array_equal(m1.blocks[e], m2.blocks[e])
    m3 = sample_model(spec, 4)
    assert not np.array_equal(m1.blocks[0], m3.blocks[0])


def test_adjoint_block_exact(a3):
    spec = BlockModelSpec(a3, 6, 6, seed=5)
    model = sample_model(spec, 0)
    e = 0
    eye = np.eye(spec.block_dim(a3.g.src(e)), dtype=np.complex64)
    implied = model.apply_block(e ^ 1, eye)
    assert np.allclose(implied, model.blocks[e].conj().T, atol=1e-7)


def test_empirical_entry_variance(a3):
    spec = BlockModelSpec(a3, 40, 40, seed=9)
    model = sample_model(spec, 0)
    for e in a3.g.positive_edges():
        block = model.blocks[e]
        emp = float(np.mean(np.abs(block) ** 2))
        want = spec.entry_variance(e)
        assert abs(emp - want) <= 0.05 * want


def test_length2_target_formula(a3):
    # E tr(X_e X_e*) -> (mu(s) mu(t))^(1/2); with the d_v cut the target is
    # mu(v) phi_v = mu(v) sigma(e), the same number
    g, pf = a3.g, a3.pf
    lp = loop_from_tokens(g, "e1 e1'")
    want = (pf.mu[g.src(0)] * pf.mu[g.tgt(0)]) ** 0.5
    assert loop_target(a3, lp) == pytest.approx(want, rel=1e-12)
    spec = BlockModelSpec(a3, 30, 30, seed=11)
    est = estimate_trace(spec, lp, samples=60)
    assert est.abs_err <= max(3 * est.stderr, 0.05 * est.target + 0.02)


def test_unmatched_loop_target_zero():
    # parallel edges: the loop e f' pairs distinct edges, target 0
    g = BipartiteGraph.build(
        [("v", "+"), ("w", "-")],
        [("e", "v", "w"), ("f", "v", "w")])
    alg = LoopAlgebra(g, perron_frobenius(g))
    lp = loop_from_tokens(g, "e f'")
    assert loop_target(alg, lp) == 0.0
    spec = BlockModelSpec(alg, 24, 24, seed=3)
    est = estimate_trace(spec, lp, samples=80)
    assert abs(est.mean) <= 3.5 * est.stderr


def test_thread_invariance(a3):
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    seq = estimate_trace(spec, lp, samples=24, threads=1)
    par = estimate_trace(spec, lp, samples=24, threads=4)
    assert seq.mean == par.mean
    assert seq.stderr == par.stderr


def test_batched_estimates_match_separate(a2):
    # both loops draw probes, and the first one batched is evaluated first,
    # so the second's value may depend only on its own stream
    spec = BlockModelSpec(a2, 12, 12, seed=8)
    l1 = loop_from_tokens(a2.g, "e e' e e'")
    l2 = loop_from_tokens(a2.g, "e e' e e' e e'")
    assert engine_for(spec, [l1, l2], 8) == DENSE
    both = estimate_traces(spec, [l2, l1], samples=20)
    alone = estimate_trace(spec, l1, samples=20)
    assert (both[1].mean, both[1].stderr) == (alone.mean, alone.stderr)


def test_single_row_sweep(a2):
    lp = loop_from_tokens(a2.g, "e e'")
    rows = convergence_sweep(a2, [lp], [(12, 12)], samples=30, seed=5)[lp]
    assert len(rows) == 1
    assert trend_non_increasing(rows)


def test_seed_variation_consistent(a2):
    lp = loop_from_tokens(a2.g, "e e' e e'")
    spec1 = BlockModelSpec(a2, 16, 16, seed=101)
    spec2 = BlockModelSpec(a2, 16, 16, seed=202)
    e1 = estimate_trace(spec1, lp, samples=80)
    e2 = estimate_trace(spec2, lp, samples=80)
    assert abs(e1.mean - e2.mean) <= 3.0 * (e1.stderr + e2.stderr)


def test_memory_cap():
    # only the dense engine holds blocks, so only dense sampling is capped
    g = BipartiteGraph.build(
        [("v", "+"), ("w", "-")], [("e", "v", "w")])
    alg = LoopAlgebra(g, perron_frobenius(g))
    spec = BlockModelSpec(alg, 20000, 20000, seed=0)
    with pytest.raises(MemoryError):
        sample_model(spec, 0)


def test_engine_rule_from_shapes(a2, a3):
    # the acceptance sweep's words query rank <= 12 of a side >= 1600 at
    # N = M = 40; twelve-letter words with 32 probes query up to 192
    for alg, word in ((a2, "e e' e e'"), (a3, "e1 e1' e2 e2'")):
        spec = BlockModelSpec(alg, 40, 40, seed=0)
        assert engine_for(spec, [loop_from_tokens(alg.g, word)], 3) == MATRIX_FREE
    long_word = loop_from_tokens(a3.g, "e1 e1' e2 e2' e1 e1' e2 e2' e1 e1' e2 e2'")
    spec = BlockModelSpec(a3, 40, 40, seed=0)
    assert engine_for(spec, [long_word], 32) == DENSE
    assert engine_for(spec, [long_word], 3) == MATRIX_FREE


def test_dense_sweep_rows_match_single_size(a3):
    # each grid size draws its own dense model, so a sweep row equals the
    # estimate at that size alone, whatever the grid and thread count
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    grid = [(3, 3), (4, 4)]
    assert engine_for(BlockModelSpec(a3, 4, 4, seed=9), [lp], 2) == DENSE
    rows = convergence_sweep(a3, [lp], grid, samples=12, seed=9, probes=2,
                             threads=2)[lp]
    for (n, m), row in zip(grid, rows):
        est = estimate_trace(BlockModelSpec(a3, n, m, seed=9), lp,
                             samples=12, probes=2)
        assert (row["N"], row["M"]) == (n, m)
        assert (row["estimate"], row["stderr"]) == (est.mean, est.stderr)


def test_matrix_free_batch_and_thread_invariance(a3):
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    l1 = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    l2 = loop_from_tokens(a3.g, "e2 e2' e1 e1'")
    assert engine_for(spec, [l1, l2], 3) == MATRIX_FREE
    seq = estimate_traces(spec, [l2, l1], samples=16, probes=3, threads=1)
    par = estimate_traces(spec, [l1], samples=16, probes=3, threads=4)
    assert (seq[1].mean, seq[1].stderr) == (par[0].mean, par[0].stderr)


def test_matrix_free_matches_exact_finite_means(a3):
    """Both engines against the exact finite-size means of iid CN(0, s^2)
    blocks (divided by N M):  E tr X X* = s^2 R C,
    E tr (X X*)^2 = s^4 R C (R + C),  E tr X1 X1* X2 X2* = s1^2 s2^2 C1 C2 R,
    E tr (X X*)^3 = s^6 R C (R^2 + 3 R C + C^2 + 1).

    At N = M = 2 the blocks are 6 x 4, so three probes of the four-letter
    words fill them and the matrix-free engine drops dependent directions.
    Only a word of six letters or more sees a left query made after a right
    one through the final inner product.  3000 samples per engine and word,
    seed 2024, 4 sigma.
    """
    n_samples, probes = 3000, 3
    spec = BlockModelSpec(a3, 2, 2, seed=2024)
    g = a3.g
    e1, e2 = g.oriented_edge_by_name("e1"), g.oriented_edge_by_name("e2")
    rows = spec.block_dim(g.src(e1))
    c1, c2 = spec.block_dim(g.tgt(e1)), spec.block_dim(g.tgt(e2))
    s1, s2 = spec.entry_variance(e1), spec.entry_variance(e2)
    nm = spec.N * spec.M
    exact = {"e1 e1'": s1 * rows * c1 / nm,
             "e1 e1' e1 e1'": s1 ** 2 * rows * c1 * (rows + c1) / nm,
             "e1 e1' e2 e2'": s1 * s2 * c1 * c2 * rows / nm,
             "e1 e1' e1 e1' e1 e1'":
                 s1 ** 3 * rows * c1 * (rows ** 2 + 3 * rows * c1 + c1 ** 2 + 1) / nm}

    def mean_stderr(values):
        values = np.asarray(values)
        return values.mean(), values.std(ddof=1) / math.sqrt(len(values))

    for word, want in exact.items():
        lp = loop_from_tokens(g, word)
        lazy = mean_stderr([MatrixFreeModel(spec, i).loop_trace(lp, probes)
                            for i in range(n_samples)])
        dense = mean_stderr([sample_model(spec, i).loop_trace(lp, probes)
                             for i in range(n_samples)])
        for mean, stderr in (lazy, dense):
            assert abs(mean - want) <= 4 * stderr, (word, mean, want)
        assert abs(lazy[0] - dense[0]) <= 4 * math.hypot(lazy[1], dense[1])

    model = MatrixFreeModel(spec, 0)
    model.loop_trace(loop_from_tokens(g, "e1 e1' e1 e1'"), probes)
    block = model.blocks[e1]
    assert block.P.shape[1] == rows and block.Q.shape[1] == c1


def test_matrix_free_block_answers_as_one_matrix(a3):
    # interleaved X v and X* u queries, past the point where they fill the
    # 6 x 4 block, must agree as u* (X v) == (X* u)* v
    spec = BlockModelSpec(a3, 2, 2, seed=5)
    model = MatrixFreeModel(spec, 0)
    model.loop_trace(loop_from_tokens(a3.g, "e1 e1' e2 e2'"), 2)
    g = a3.g
    e = g.oriented_edge_by_name("e1")
    rows, cols = spec.block_dim(g.src(e)), spec.block_dim(g.tgt(e))
    rng = np.random.default_rng(0)
    right, left = [], []
    for step in range(8):
        dim, queries, edge = ((cols, right, e) if step % 2 == 0
                              else (rows, left, e ^ 1))
        w = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        queries.append((w, model.apply_block(edge, w)))
    for u, xu in left:
        for v, xv in right:
            assert np.allclose(u.conj().T @ xv, xu.conj().T @ v, atol=1e-10)
