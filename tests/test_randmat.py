import math
from collections import Counter

import numpy as np
import pytest

from graphloops import BipartiteGraph, LoopAlgebra, perron_frobenius, randmat
from graphloops.elements import Loop, loop_from_tokens
from graphloops.randmat import (BlockModelSpec, SampledModel, _LazyBlock,
                                convergence_sweep, estimate_traces,
                                loop_target,
                                trend_non_increasing)

# the four long words of the benchmark's mc-long workload
LONG_WORDS = ("e1 e1' e2 e2' e1 e1'",
              "e1 e1' e2 e2' e2 e2' e1 e1'",
              "e1 e1' e1 e1' e2 e2' e1 e1' e2 e2'",
              "e1 e1' e2 e2' e1 e1' e2 e2' e1 e1' e2 e2'")


def test_loop_trace_is_pinned(a3):
    # one sample's values at a fixed seed: every `mc` row depends on the
    # loop's stream, the Gaussian draws and the direction bases, so a change
    # to any of them moves these values; the six-letter word fills the
    # 12 x 9 block of e1 and so also takes the SVD fallback
    spec = BlockModelSpec(a3, 3, 3, seed=7)
    want = {"e1 e1'": 1.1032241695883314,
            "e1 e1' e2 e2'": 1.3238605017872562,
            "e1 e1' e1 e1' e1 e1'": 5.482505291684278}
    for word, value in want.items():
        got = SampledModel(spec, 2).loop_trace(loop_from_tokens(a3.g, word), 4)
        assert got == pytest.approx(value, rel=1e-9), word


def test_probe_phases_equal_the_exponential_bit_for_bit(a3):
    # the probes read a table of the four phases; every `mc` row rests on
    # them being the values np.exp(0.5j pi z) gives, to the last bit
    model = SampledModel(BlockModelSpec(a3, 3, 3, seed=7), 0)
    model.rng = np.random.default_rng(11)
    z = model.probe_matrix(2280, 32)
    model.rng = np.random.default_rng(11)
    draw = model.rng.integers(0, 4, size=(2280, 32))
    assert z.tobytes() == np.exp(0.5j * np.pi * draw).tobytes()


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
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    value = SampledModel(spec, 3).loop_trace(lp, 4)
    assert SampledModel(spec, 3).loop_trace(lp, 4) == value
    assert SampledModel(spec, 4).loop_trace(lp, 4) != value


def test_adjoint_block_exact(a3):
    # the whole block read through X then through X* is one matrix and
    # its conjugate transpose
    spec = BlockModelSpec(a3, 3, 3, seed=5)
    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(a3.g, "e1 e1' e2 e2'"), 2)
    g, e = a3.g, 0
    rows, cols = spec.block_dim(g.src(e)), spec.block_dim(g.tgt(e))
    x = model.apply_block(e, np.eye(cols))
    x_star = model.apply_block(e ^ 1, np.eye(rows))
    assert np.allclose(x_star, x.conj().T, atol=1e-10)


def test_empirical_entry_variance(a3):
    spec = BlockModelSpec(a3, 10, 10, seed=9)
    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(a3.g, "e1 e1' e2 e2'"), 1)
    g = a3.g
    for e in g.positive_edges():
        block = model.apply_block(e, np.eye(spec.block_dim(g.tgt(e))))
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
    est = estimate_traces(spec, [lp], samples=60)[0]
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
    est = estimate_traces(spec, [lp], samples=80)[0]
    assert abs(est.mean) <= 3.5 * est.stderr


def test_thread_invariance(a3):
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    seq = estimate_traces(spec, [lp], samples=24, threads=1)[0]
    par = estimate_traces(spec, [lp], samples=24, threads=4)[0]
    assert seq.mean == par.mean
    assert seq.stderr == par.stderr


def test_batched_estimates_match_separate(a2):
    # both loops draw probes, and the first one batched is evaluated first,
    # so the second's value may depend only on its own stream
    spec = BlockModelSpec(a2, 12, 12, seed=8)
    l1 = loop_from_tokens(a2.g, "e e' e e'")
    l2 = loop_from_tokens(a2.g, "e e' e e' e e'")
    both = estimate_traces(spec, [l2, l1], samples=20)
    alone = estimate_traces(spec, [l1], samples=20)[0]
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
    e1 = estimate_traces(spec1, [lp], samples=80)[0]
    e2 = estimate_traces(spec2, [lp], samples=80)[0]
    assert abs(e1.mean - e2.mean) <= 3.0 * (e1.stderr + e2.stderr)


def test_dense_sweep_rows_match_single_size(a3):
    # each grid size draws its own model, so a sweep row equals the
    # estimate at that size alone, whatever the grid and thread count
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    grid = [(3, 3), (4, 4)]
    rows = convergence_sweep(a3, [lp], grid, samples=12, seed=9, probes=2,
                             threads=2)[lp]
    for (n, m), row in zip(grid, rows):
        est = estimate_traces(BlockModelSpec(a3, n, m, seed=9), [lp],
                              samples=12, probes=2)[0]
        assert (row["N"], row["M"]) == (n, m)
        assert (row["estimate"], row["stderr"]) == (est.mean, est.stderr)


def test_matrix_free_batch_and_thread_invariance(a3):
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    l1 = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    l2 = loop_from_tokens(a3.g, "e2 e2' e1 e1'")
    seq = estimate_traces(spec, [l2, l1], samples=16, probes=3, threads=1)
    par = estimate_traces(spec, [l1], samples=16, probes=3, threads=4)
    assert (seq[1].mean, seq[1].stderr) == (par[0].mean, par[0].stderr)


def _dense_traces(spec, lp, probes, n, rng):
    """n draws of a reference sampler: every block drawn in full as iid
    CN(0, s^2), then tr(d_v X_w) / (N M), summed exactly for e e' and by
    the same complex Rademacher Hutchinson chain as the sampler otherwise."""
    g = spec.alg.g
    blocks = {}
    for e in g.positive_edges():
        shape = (n, spec.block_dim(g.src(e)), spec.block_dim(g.tgt(e)))
        sd = math.sqrt(spec.entry_variance(e) / 2)
        x = sd * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        blocks[e], blocks[e ^ 1] = x, x.conj().transpose(0, 2, 1)
    norm = 1.0 / (spec.N * spec.M)
    if len(lp.edges) == 2 and lp.edges[1] == lp.edges[0] ^ 1:
        return norm * np.sum(np.abs(blocks[lp.edges[0]]) ** 2, axis=(1, 2))
    z = np.exp(0.5j * np.pi
               * rng.integers(0, 4, (n, spec.block_dim(lp.base), probes)))
    w = z
    for e in reversed(lp.edges):
        w = blocks[e] @ w
    return norm * np.einsum("sij,sij->s", z.conj(), w).real / probes


def test_matrix_free_matches_exact_finite_means(a3):
    """The sampler and a dense reference sampler against the exact
    finite-size means of iid CN(0, s^2) blocks (divided by N M):
    E tr X X* = s^2 R C,  E tr (X X*)^2 = s^4 R C (R + C),
    E tr X1 X1* X2 X2* = s1^2 s2^2 C1 C2 R,
    E tr (X X*)^3 = s^6 R C (R^2 + 3 R C + C^2 + 1).

    At N = M = 2 the blocks are 6 x 4, so three probes of the four-letter
    words fill them and the sampler drops dependent directions.  Only a
    word of six letters or more sees a left query made after a right one
    through the final inner product.  3000 samples per sampler and word,
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

    rng = np.random.default_rng(2025)
    for word, want in exact.items():
        lp = loop_from_tokens(g, word)
        lazy = mean_stderr([SampledModel(spec, i).loop_trace(lp, probes)
                            for i in range(n_samples)])
        dense = mean_stderr(_dense_traces(spec, lp, probes, n_samples, rng))
        for mean, stderr in (lazy, dense):
            assert abs(mean - want) <= 4 * stderr, (word, mean, want)
        assert abs(lazy[0] - dense[0]) <= 4 * math.hypot(lazy[1], dense[1])

    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(g, "e1 e1' e1 e1'"), probes)
    block = model.blocks[e1]
    assert block.P.shape[1] == rows and block.Q.shape[1] == c1


def test_lazy_block_bidiagonal_law():
    """Golub-Kahan bidiagonalization from e_1 of a rows x cols block of iid
    CN(0, var) has independent chi entries (Dumitriu-Edelman, J. Math. Phys.
    43, 2002): scaled by sqrt(var / 2), alpha_j ~ chi_{2 (rows - j + 1)} and
    beta_j ~ chi_{2 (cols - j)}.  The plain three-term recurrence alternates
    X v and X* u queries without reorthogonalizing, so a fresh draw not
    projected off the known subspaces shows in the law.  3000 blocks of
    6 x 4, seed 2024, every Kolmogorov-Smirnov p > 1e-3."""
    from scipy import stats

    rows, cols, var, n_blocks = 6, 4, 0.7, 3000
    rng = np.random.default_rng(2024)
    alphas, betas = [], []
    for _ in range(n_blocks):
        block = _LazyBlock(rows, cols, var, rng)
        v, u = np.eye(cols, 1, dtype=complex), 0.0
        a, b = [], [0.0]
        for j in range(3):
            u = block.matvec(v) - b[-1] * u
            a.append(np.linalg.norm(u))
            u = u / a[-1]
            if j < 2:
                v = block.rmatvec(u) - a[-1] * v
                b.append(np.linalg.norm(v))
                v = v / b[-1]
        alphas.append(a)
        betas.append(b[1:])
    scale = math.sqrt(var / 2)
    alphas, betas = np.array(alphas) / scale, np.array(betas) / scale
    for j in range(3):
        df = 2 * (rows - j)
        assert stats.kstest(alphas[:, j], stats.chi(df).cdf).pvalue > 1e-3, j
    for j in range(2):
        df = 2 * (cols - j - 1)
        assert stats.kstest(betas[:, j], stats.chi(df).cdf).pvalue > 1e-3, j


def test_matrix_free_block_answers_as_one_matrix(a3):
    # interleaved X v and X* u queries, past the point where they fill the
    # 6 x 4 block, must agree as u* (X v) == (X* u)* v
    spec = BlockModelSpec(a3, 2, 2, seed=5)
    model = SampledModel(spec, 0)
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


@pytest.mark.parametrize("n, probes", [(10, 8), (2, 3), (3, 4)],
                         ids=["large", "filled-2", "filled-3"])
def test_direction_bases_stay_orthonormal(a3, n, probes):
    # new directions come from Cholesky QR done twice; one pass alone leaves
    # ||Q*Q - I|| above 1e-12 where the queries fill the block (N = M = 2, 3)
    spec = BlockModelSpec(a3, n, n, seed=1)
    for i in range(3):
        for word in LONG_WORDS:
            model = SampledModel(spec, i)
            model.loop_trace(loop_from_tokens(a3.g, word), probes)
            for e, block in model.blocks.items():
                for basis in (block.P, block.Q):
                    gram = basis.conj().T @ basis
                    err = np.linalg.norm(gram - np.eye(len(gram)), 2)
                    assert err <= 1e-12, (word, i, e, err)


def test_query_steps_stack_nothing_and_factor_without_householder(
        a3, monkeypatch):
    # bases are reserved from the word and filled in place; the SVD runs
    # exactly on the steps whose query has a dependent direction
    calls = Counter()

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((np, "hstack"), (np, "vstack"), (np.linalg, "qr"),
                         (np.linalg, "svd")):
        counted(module, name)
    deficient = Counter()
    new_directions = randmat._new_directions

    def watched(basis, v):
        c, new, r = new_directions(basis, v)
        deficient["steps"] += new.shape[1] < v.shape[1]
        return c, new, r
    monkeypatch.setattr(randmat, "_new_directions", watched)

    lp = loop_from_tokens(a3.g, LONG_WORDS[-1])
    SampledModel(BlockModelSpec(a3, 10, 10, seed=1), 0).loop_trace(lp, 8)
    assert calls == Counter() and deficient["steps"] == 0
    SampledModel(BlockModelSpec(a3, 2, 2, seed=1), 0).loop_trace(lp, 3)
    assert deficient["steps"] > 0
    assert calls == Counter(svd=deficient["steps"])


@pytest.mark.parametrize("cpus, sizes", [(64, [3]), (2, [2]), (None, [])],
                         ids=["samples", "cpus", "unknown-cpus"])
def test_worker_count_is_capped(a3, monkeypatch, cpus, sizes):
    # --threads has no upper bound, so the pool takes at most one worker per
    # sample and per CPU; the executor is replaced by one that records its
    # size and runs the samples in this thread, so no thread starts
    import concurrent.futures
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(randmat.os, "cpu_count", lambda: cpus)
    spec = BlockModelSpec(a3, 4, 4, seed=3)
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    got = estimate_traces(spec, [lp], samples=3, threads=10_000)[0]
    assert seen == sizes
    want = estimate_traces(spec, [lp], samples=3, threads=1)[0]
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


MIXED_WORDS = ("e1 e1'", "e1 e1' e2 e2'", "e2 e2' e2 e2' e2 e2'",
               LONG_WORDS[-1])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("order", [-1, 1],
                         ids=["long-then-short", "short-then-long"])
def test_reused_buffers_keep_no_rows_of_an_earlier_loop(a3, order, threads):
    # the batch's reservation fits its longest word and every loop and
    # sample refills it, so rows left past the queried part by an earlier
    # loop must not reach a later one; a lone model grows its reservation
    # when a longer word follows
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    loops = [loop_from_tokens(a3.g, w) for w in MIXED_WORDS[::order]]
    batch = estimate_traces(spec, loops, samples=6, probes=3, threads=threads)
    for lp, est in zip(loops, batch):
        alone = estimate_traces(spec, [lp], samples=6, probes=3)[0]
        assert (est.mean, est.stderr) == (alone.mean, alone.stderr), lp
    model = SampledModel(spec, 4)
    for lp in loops:
        want = SampledModel(spec, 4).loop_trace(lp, 3)
        assert model.loop_trace(lp, 3) == want, lp


def _filled(model):
    return [view for block in model.blocks.values()
            for view in (block.P, block.A, block.Q, block.G)]


def test_a_worker_fills_one_reservation(a3, monkeypatch):
    # two consecutive loops fill the same buffers, on a lone model and in
    # every sample of a worker, and `blocks` holds the latest loop's queries
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    long, short = (loop_from_tokens(a3.g, w)
                   for w in (LONG_WORDS[-1], "e1 e1' e2 e2'"))
    model = SampledModel(spec, 0)
    model.loop_trace(long, 3)
    before = _filled(model)
    model.loop_trace(short, 3)
    alone = SampledModel(spec, 0)
    alone.loop_trace(short, 3)
    for old, new, want in zip(before, _filled(model), _filled(alone)):
        assert np.shares_memory(old, new)
        assert new.tobytes() == want.tobytes()

    filled = []
    loop_trace = SampledModel.loop_trace

    def recorded(self, lp, probes=8):
        value = loop_trace(self, lp, probes)
        filled.append(_filled(self))
        return value
    monkeypatch.setattr(SampledModel, "loop_trace", recorded)
    estimate_traces(spec, [long, short], samples=3, probes=3)
    assert len(filled) == 6
    for views in filled[1:]:
        assert all(map(np.shares_memory, filled[0], views))
