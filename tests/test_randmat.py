import math
from collections import Counter

import numpy as np
import pytest

from graphloops import BipartiteGraph, LoopAlgebra, perron_frobenius, randmat
from graphloops.elements import Loop, loop_from_tokens
from graphloops.randmat import (BlockModelSpec, SampledModel, _LazyBlock,
                                _Space, convergence_sweep, estimate_traces,
                                loop_target, sample_groups,
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
            "e1 e1' e2 e2'": 0.9097416519386426,
            "e1 e1' e1 e1' e1 e1'": 2.4617204798566013}
    for word, value in want.items():
        got = SampledModel(spec, 2).loop_trace(loop_from_tokens(a3.g, word), 4)
        assert got == pytest.approx(value, rel=1e-9), word


def test_probe_phases_equal_the_exponential_bit_for_bit(a3):
    # the probes read a table of the four phases; every `mc` row rests on
    # them being the values np.exp(0.5j pi z) gives, to the last bit
    model = SampledModel(BlockModelSpec(a3, 3, 3, seed=7), 0)
    z = model.probe_matrix(2280, 32, np.random.default_rng(11))
    draw = np.random.default_rng(11).integers(0, 4, size=(2280, 32))
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


def _stacked(spec, lp, probes, n):
    # the per-sample values of samples 0..n-1, each group of the estimator
    # run as one stack
    return np.concatenate([SampledModel(spec, group).loop_trace(lp, probes)
                           for group in sample_groups(spec.alg.g, lp, n, probes)])


def _on_all_axes(*spaces):
    # the chain works in the coordinates it has queried; a caller holding
    # whole vectors puts each vertex space on all its axes first
    for space in spaces:
        space.r = space.n


def test_adjoint_block_exact(a3):
    # the whole block read through X then through X* is one matrix and
    # its conjugate transpose
    spec = BlockModelSpec(a3, 3, 3, seed=5)
    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(a3.g, "e1 e1' e2 e2'"), 2)
    _on_all_axes(*model.spaces)
    g, e = a3.g, 0
    rows, cols = spec.block_dim(g.src(e)), spec.block_dim(g.tgt(e))
    x = model.apply_block(e, np.eye(cols)[None])[0]
    x_star = model.apply_block(e ^ 1, np.eye(rows)[None])[0]
    assert np.allclose(x_star, x.conj().T, atol=1e-10)


def test_empirical_entry_variance(a3):
    spec = BlockModelSpec(a3, 10, 10, seed=9)
    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(a3.g, "e1 e1' e2 e2'"), 1)
    _on_all_axes(*model.spaces)
    g = a3.g
    for e in g.positive_edges():
        block = model.apply_block(e, np.eye(spec.block_dim(g.tgt(e)))[None])[0]
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
        lazy = mean_stderr(_stacked(spec, lp, probes, n_samples))
        dense = mean_stderr(_dense_traces(spec, lp, probes, n_samples, rng))
        for mean, stderr in (lazy, dense):
            assert abs(mean - want) <= 4 * stderr, (word, mean, want)
        assert abs(lazy[0] - dense[0]) <= 4 * math.hypot(lazy[1], dense[1])

    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(g, "e1 e1' e1 e1'"), probes)
    block = model.blocks[e1]
    assert block.P.shape[2] == rows and block.Q.shape[2] == c1


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
        block = _LazyBlock(_Space(rows), _Space(cols), var, [rng])
        _on_all_axes(block.left, block.right)
        v, u = np.eye(cols, 1, dtype=complex)[None], 0.0
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


@pytest.mark.parametrize("n, probes, word", [(1, 4, 0), (2, 3, 0), (4, 2, 1)],
                         ids=["runs-out-1", "runs-out-2", "room-4"])
def test_queried_coordinates_keep_the_law(a3, n, probes, word):
    """The sampler works in the coordinates it has queried, a fresh draw's
    unseen part entering as its Bartlett factor on new axes.  Its per-sample
    values of a long word against the dense reference sampler, by a
    two-sample Kolmogorov-Smirnov test: at N = M = 1 and 2 the unseen part
    runs out before the probes do, at N = M = 4 it does not.  A factor
    whose diagonal ignores its row fails at N = M = 2 and 4.  A draw without
    its part on the known axes fails on the eight-letter word; the
    six-letter one reads that part only through directions the reading
    block has already queried.  4000 samples per sampler, seeds 2024 and
    2025, p > 1e-3."""
    from scipy import stats

    spec = BlockModelSpec(a3, n, n, seed=2024)
    lp = loop_from_tokens(a3.g, LONG_WORDS[word])
    lazy = _stacked(spec, lp, probes, 4000)
    dense = _dense_traces(spec, lp, probes, 4000, np.random.default_rng(2025))
    assert stats.ks_2samp(lazy, dense).pvalue > 1e-3


def test_chain_draws_scale_with_queried_coordinates(a3, monkeypatch):
    # a count, not a timing: drawing each fresh vector on all n axes of a
    # vertex takes n k values per letter, while in the queried coordinates
    # a vertex holds at most probes x (letters ending there, plus one at
    # the base) and a letter draws (r + k) k
    probes, samples = 4, 2
    g = a3.g
    spec = BlockModelSpec(a3, 40, 40, seed=1)
    loops = [loop_from_tokens(g, w) for w in LONG_WORDS]
    drawn = Counter()
    normals = randmat.normals

    def counted(rngs, rows, cols, var):
        drawn["values"] += len(rngs) * rows * cols
        return normals(rngs, rows, cols, var)
    monkeypatch.setattr(randmat, "normals", counted)
    loop_trace = SampledModel.loop_trace

    def bounded(self, lp, probes=8):
        value = loop_trace(self, lp, probes)
        ends = Counter([lp.base, *map(g.src, lp.edges)])
        for v, space in enumerate(self.spaces):
            assert space.r <= probes * ends[v], (lp, v, space.r)
        return value
    monkeypatch.setattr(SampledModel, "loop_trace", bounded)
    estimate_traces(spec, loops, samples, probes)
    ambient = samples * probes * sum(spec.block_dim(g.src(e))
                                     for lp in loops for e in lp.edges)
    assert 0 < drawn["values"] < ambient / 5


def test_matrix_free_block_answers_as_one_matrix(a3):
    # interleaved X v and X* u queries, past the point where they fill the
    # 6 x 4 block, must agree as u* (X v) == (X* u)* v
    spec = BlockModelSpec(a3, 2, 2, seed=5)
    model = SampledModel(spec, 0)
    model.loop_trace(loop_from_tokens(a3.g, "e1 e1' e2 e2'"), 2)
    _on_all_axes(*model.spaces)
    g = a3.g
    e = g.oriented_edge_by_name("e1")
    rows, cols = spec.block_dim(g.src(e)), spec.block_dim(g.tgt(e))
    rng = np.random.default_rng(0)
    right, left = [], []
    for step in range(8):
        dim, queries, edge = ((cols, right, e) if step % 2 == 0
                              else (rows, left, e ^ 1))
        w = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        queries.append((w, model.apply_block(edge, w[None])[0]))
    for u, xu in left:
        for v, xv in right:
            assert np.allclose(u.conj().T @ xv, xu.conj().T @ v, atol=1e-10)


@pytest.mark.parametrize("n, probes", [(10, 8), (2, 3), (3, 4)],
                         ids=["large", "filled-2", "filled-3"])
def test_direction_bases_stay_orthonormal(a3, n, probes):
    # new directions come from Cholesky QR done twice; one pass alone leaves
    # ||Q*Q - I|| above 1e-12 where the queries fill the block (N = M = 2, 3);
    # samples 0-2 run as one stack, and each sample's bases are checked
    spec = BlockModelSpec(a3, n, n, seed=1)
    for word in LONG_WORDS:
        model = SampledModel(spec, range(3))
        model.loop_trace(loop_from_tokens(a3.g, word), probes)
        for e, block in model.blocks.items():
            for basis in (block.P, block.Q):
                assert len(basis) == 3
                for i, one in enumerate(basis):
                    gram = one.conj().T @ one
                    err = np.linalg.norm(gram - np.eye(len(gram)), 2)
                    assert err <= 1e-12, (word, i, e, err)


def test_query_steps_stack_nothing_and_factor_without_householder(
        a3, monkeypatch):
    # bases are buffers that the queries fill in place; the SVD runs
    # exactly on the steps whose query has a dependent direction, and in a
    # stack it factors exactly the samples whose step has one (an SVD call
    # is counted once per sample it factors)
    calls = Counter()

    def counted(module, name, per_sample=False):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += len(args[0]) if per_sample else 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((np, "hstack"), (np, "vstack"), (np.linalg, "qr")):
        counted(module, name)
    counted(np.linalg, "svd", per_sample=True)
    deficient = Counter()
    new_directions = randmat._new_directions

    def watched(basis, v):
        c, new, r = new_directions(basis, v)
        deficient["steps"] += len(v) * (new.shape[2] < v.shape[2])
        return c, new, r
    monkeypatch.setattr(randmat, "_new_directions", watched)

    lp = loop_from_tokens(a3.g, LONG_WORDS[-1])
    for samples in (0, range(4)):
        calls.clear(), deficient.clear()
        model = SampledModel(BlockModelSpec(a3, 10, 10, seed=1), samples)
        model.loop_trace(lp, 8)
        assert calls == Counter() and deficient["steps"] == 0
        model = SampledModel(BlockModelSpec(a3, 2, 2, seed=1), samples)
        model.loop_trace(lp, 3)
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
    # a worker's buffers grow to fit its longest word and every loop and
    # group refills them, so rows left past the queried part by an earlier
    # loop must not reach a later one; a lone stack's buffers grow when a
    # longer word follows
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    loops = [loop_from_tokens(a3.g, w) for w in MIXED_WORDS[::order]]
    batch = estimate_traces(spec, loops, samples=6, probes=3, threads=threads)
    for lp, est in zip(loops, batch):
        alone = estimate_traces(spec, [lp], samples=6, probes=3)[0]
        assert (est.mean, est.stderr) == (alone.mean, alone.stderr), lp
    model = SampledModel(spec, range(2, 6))
    for lp in loops:
        want = SampledModel(spec, range(2, 6)).loop_trace(lp, 3)
        assert model.loop_trace(lp, 3).tobytes() == want.tobytes(), lp


def _filled(model):
    return [view for block in model.blocks.values()
            for view in (block.P, block.A, block.Q, block.G)]


def test_a_worker_refills_its_buffers(a3, monkeypatch):
    # two consecutive loops fill the same buffers, on a lone stack of three
    # samples and in every group of a worker, and `blocks` holds the latest
    # loop's queries; with the short word first, the buffers grow in the
    # first group and every later loop refills the grown ones.  A budget of
    # one makes every group a single sample, as a worker of six groups.
    spec = BlockModelSpec(a3, 10, 10, seed=21)
    long, short = (loop_from_tokens(a3.g, w)
                   for w in (LONG_WORDS[-1], "e1 e1' e2 e2'"))
    model = SampledModel(spec, range(3))
    model.loop_trace(long, 3)
    before = _filled(model)
    model.loop_trace(short, 3)
    alone = SampledModel(spec, range(3))
    alone.loop_trace(short, 3)
    for old, new, want in zip(before, _filled(model), _filled(alone)):
        assert len(new) == 3
        assert np.shares_memory(old, new)
        assert new.tobytes() == want.tobytes()

    filled = []
    loop_trace = SampledModel.loop_trace

    def recorded(self, lp, probes=8):
        value = loop_trace(self, lp, probes)
        filled.append(_filled(self))
        return value
    monkeypatch.setattr(SampledModel, "loop_trace", recorded)
    for budget, groups in ((1, 6), (randmat._BUDGET, 2)):
        monkeypatch.setattr(randmat, "_BUDGET", budget)
        filled.clear()
        estimate_traces(spec, [long, short], samples=3, probes=3)
        assert len(filled) == groups
        for views in filled[1:]:
            assert all(map(np.shares_memory, filled[0], views))

        filled.clear()
        estimate_traces(spec, [short, long], samples=3, probes=3)
        assert len(filled) == groups
        assert not any(map(np.shares_memory, filled[0], filled[groups // 2]))
        for views in filled[groups // 2 + 1:]:
            assert all(map(np.shares_memory, filled[groups // 2], views))


WORDS = {"a2": ("e e' e e'", "e e' e e' e e' e e' e e' e e'"),
         "a3": ("e1 e1' e2 e2'", LONG_WORDS[0], LONG_WORDS[3]),
         "s4": ("e1 e1' e2 e2'", "e1 e1' e2 e2' e3 e3' e4 e4'",
                "e1 e1' e2 e2' e1 e1' e3 e3' e4 e4'")}


@pytest.mark.parametrize("graph", list(WORDS))
def test_stacked_samples_equal_single_sample_groups(test_algebras, graph):
    # a group runs one loop as one stack; each sample's value equals the
    # sample run alone, in and past the regime where the queries fill a
    # block (N = M = 2)
    alg = test_algebras[graph]
    for n in (2, 5, 40):
        spec = BlockModelSpec(alg, n, n, seed=3)
        for word in WORDS[graph]:
            lp = loop_from_tokens(alg.g, word)
            for probes in (1, 3, 8):
                stack = SampledModel(spec, range(4)).loop_trace(lp, probes)
                alone = [SampledModel(spec, i).loop_trace(lp, probes)[0]
                         for i in range(4)]
                np.testing.assert_allclose(stack, alone, rtol=1e-12, atol=0,
                                           err_msg=f"{word} N={n} k={probes}")


def test_ragged_ranks_rerun_and_equal_single_samples(a3, monkeypatch):
    # a sample whose probes repeat a column fails its Cholesky test, so its
    # group parts ways, and keeps one or two directions fewer, so the part
    # that failed parts again by rank; each part runs again as a stack, and
    # each value still equals the sample alone
    probe_matrix = SampledModel.probe_matrix

    def repeating(self, dim, probes, rng):
        z = probe_matrix(self, dim, probes, rng)
        for j in (1, 2):                # each in a quarter of the streams
            if z[0, 0] == z[0, j]:
                z[:, j] = z[:, 0]
        return z
    monkeypatch.setattr(SampledModel, "probe_matrix", repeating)
    stacks = Counter()
    stack = SampledModel._stack

    def counted(self, lp, probes, samples):
        stacks[len(samples)] += 1
        return stack(self, lp, probes, samples)
    monkeypatch.setattr(SampledModel, "_stack", counted)
    spec = BlockModelSpec(a3, 10, 10, seed=2)
    lp = loop_from_tokens(a3.g, LONG_WORDS[1])
    values = SampledModel(spec, range(16)).loop_trace(lp, 3)
    assert stacks[16] == 1 and sum(stacks.values()) >= 5
    alone = [SampledModel(spec, i).loop_trace(lp, 3)[0] for i in range(16)]
    np.testing.assert_allclose(values, alone, rtol=1e-12, atol=0)


def test_groups_leave_the_thread_count_out(a3, monkeypatch):
    # ten samples in groups of three (the word's bound is 289 values): one
    # and two workers split the groups differently and give the same bits
    monkeypatch.setattr(randmat, "_BUDGET", 3 * 289)
    spec = BlockModelSpec(a3, 6, 6, seed=4)
    loops = [loop_from_tokens(a3.g, w) for w in ("e1 e1' e2 e2'", "e1 e1'")]
    assert [len(g) for g in sample_groups(a3.g, loops[0], 10, 3)] == [3, 3, 3, 1]
    one = estimate_traces(spec, loops, samples=10, probes=3, threads=1)
    two = estimate_traces(spec, loops, samples=10, probes=3, threads=2)
    for a, b in zip(one, two):
        assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_budget_sizes_the_benchmark_groups(a2, a3):
    # the mc-sweep words run their ten samples as one group; mc-long's
    # longest word holds at most two samples a group
    for alg, words in ((a2, ("e e'", "e e' e e'")),
                       (a3, ("e1 e1'", "e1 e1' e2 e2'"))):
        for word in words:
            lp = loop_from_tokens(alg.g, word)
            assert sample_groups(alg.g, lp, 10, 3) == [range(10)]
    lp = loop_from_tokens(a3.g, LONG_WORDS[-1])
    groups = sample_groups(a3.g, lp, 10, 32)
    assert max(map(len, groups)) <= 2
    assert [i for g in groups for i in g] == list(range(10))
    assert sample_groups(a3.g, lp, 10, 10_000) == [range(i, i + 1)
                                                   for i in range(10)]


@pytest.mark.parametrize("dim, probes, rows", [(7, 3, 2), (100, 5, 33),
                                               (2280, 32, 1000), (13, 1, 4)])
def test_chunked_probe_draws_continue_the_stream(dim, probes, rows):
    # the probes are drawn in row chunks: the chunks are the one-shot draw,
    # and the stream goes on from the same state
    rng = np.random.default_rng(11)
    whole, after = rng.integers(0, 4, size=(dim, probes)), rng.random()
    rng = np.random.default_rng(11)
    parts = [rng.integers(0, 4, size=(min(rows, dim - i), probes))
             for i in range(0, dim, rows)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert rng.random() == after


@pytest.mark.parametrize("probes", [1, 2, 3])
def test_probe_chunks_leave_the_values(a3, monkeypatch, probes):
    # a small budget draws the 35 probe rows in chunks of 2 to 6 rows; each
    # sample's value moves only by the rounding of the Gram's sum
    spec = BlockModelSpec(a3, 5, 5, seed=2)
    lp = loop_from_tokens(a3.g, LONG_WORDS[0])
    want = [SampledModel(spec, i).loop_trace(lp, probes)[0] for i in range(3)]
    monkeypatch.setattr(randmat, "_BUDGET", 100)
    got = [SampledModel(spec, i).loop_trace(lp, probes)[0] for i in range(3)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_probe_draw_holds_no_block_side_array(a3):
    # at N = M = 300 the base space has 127,200 axes; a one-shot draw of 32
    # probes would hold 31 MiB of integers and 62 MiB of phases
    import tracemalloc
    spec = BlockModelSpec(a3, 300, 300, seed=1)
    lp = loop_from_tokens(a3.g, "e1 e1' e2 e2'")
    tracemalloc.start()
    try:
        SampledModel(spec, 0).loop_trace(lp, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
