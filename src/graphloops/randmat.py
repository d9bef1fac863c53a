"""Gaussian block random-matrix model whose expected block traces converge
to the center-valued trace of loops.

Each positively oriented edge e carries an (N M_{s(e)}) x (N M_{t(e)}) block
of iid complex Gaussians with E|entry|^2 = (mu(s) mu(t))^{-1/2} / (N M); the
opposite edge is the adjoint block.  The normalized trace divides by N M, so
tr(d_v) = M_v / M -> mu(v).  For a loop w based at v,

    E tr(d_v X_w)  ->  mu(v) phi_v(w)   (M, N -> infinity).

A loop's trace on one sample is an unbiased Hutchinson estimate driven by
matrix-vector chains (length-2 loops e e' are summed exactly).  Two engines
answer the chain's products, both exact in law:

* dense (`SampledModel`): draws every block in full from the counter-based
  stream of `_normals` and multiplies.  One draw serves every loop of a
  batch, but each sample costs a Gaussian value per block entry.
* matrix-free (`MatrixFreeModel`): draws a block only along the directions
  the chain queries.  Given the queried left and right subspaces, the rest
  of an iid Gaussian block is fresh iid Gaussian, so each query costs
  O(block side x queried rank) and no block is ever held.

`estimate_traces` and `convergence_sweep` choose the engine per batch from
shapes alone, by `engine_for`.  Either way sample i is reproducible from
(seed, i) regardless of thread count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from ._normals import normals
from .elements import Loop, LoopAlgebra
from .traces import _phi_word

MEMORY_CAP_ENTRIES = 3 * 10 ** 8


@dataclass(frozen=True)
class BlockModelSpec:
    alg: LoopAlgebra
    N: int
    M: int
    seed: int = 0
    M_v: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.M_v:
            mv = tuple(max(1, round(self.M * m)) for m in self.alg.pf.mu)
            object.__setattr__(self, "M_v", mv)

    def block_dim(self, v: int) -> int:
        return self.N * self.M_v[v]

    def entry_variance(self, e: int) -> float:
        g, pf = self.alg.g, self.alg.pf
        return ((pf.mu[g.src(e)] * pf.mu[g.tgt(e)]) ** -0.5) / (self.N * self.M)

    def tr_d(self, v: int) -> float:
        """Normalized trace of the vertex projection, M_v / M."""
        return self.M_v[v] / self.M


class SampledModel:
    """One draw of the edge blocks; negative edges are adjoints on demand.

    Blocks are complex64 (probe accuracy is far below the statistical
    error).  Entry streams are counter-based: block entries of sample i live
    at counter offset i * (total entries), so any sample is reproducible in
    isolation and resampling is independent of thread scheduling.  Each
    `loop_trace` call draws its probes from default_rng([seed ^ 0x5DEECE66D,
    sample index, N, M, base, length, *edges]), so a loop's value does not
    depend on the loops evaluated before it.  A reusable workspace dict
    avoids repeated large allocations across samples; blocks alias its
    buffers, so at most one model per workspace may be alive at a time.
    A spec past MEMORY_CAP_ENTRIES block entries raises MemoryError before
    anything is drawn.
    """

    def __init__(self, spec: BlockModelSpec, sample_index: int = 0,
                 workspace: dict | None = None):
        self.spec = spec
        self.sample_index = sample_index
        g = spec.alg.g
        self.blocks: dict[int, np.ndarray] = {}
        entries = sum(spec.block_dim(g.src(e)) * spec.block_dim(g.tgt(e))
                      for e in g.positive_edges())
        if entries > MEMORY_CAP_ENTRIES:
            raise MemoryError("dense block model exceeds the memory cap")
        stride = 2 * entries
        counter = np.uint64(sample_index) * np.uint64(stride)
        for e in g.positive_edges():
            rows = spec.block_dim(g.src(e))
            cols = spec.block_dim(g.tgt(e))
            sd = math.sqrt(spec.entry_variance(e) / 2.0)
            n = 2 * rows * cols
            buf = None if workspace is None else workspace.get(("blk", e, n))
            if buf is None:
                buf = np.empty(n, dtype=np.float32)
                if workspace is not None:
                    workspace[("blk", e, n)] = buf
            normals(spec.seed, int(counter), n, out=buf)
            counter += np.uint64(n)
            block = buf.view(np.complex64).reshape(rows, cols)
            block *= np.float32(sd)
            self.blocks[e] = block
        self.rng: np.random.Generator | None = None

    def apply_block(self, e: int, w: np.ndarray) -> np.ndarray:
        """X_e @ w without materializing adjoint copies."""
        if e in self.blocks:
            return self.blocks[e] @ w
        a = self.blocks[e ^ 1]
        return (w.conj().T @ a).conj().T

    def frobenius_sq(self, e: int) -> float:
        """||X_e||_F^2, summed elementwise."""
        flat = self.blocks.get(e, self.blocks.get(e ^ 1)).view(np.float32)
        return float(np.einsum("ij,ij->", flat, flat, dtype=np.float64))

    def probe_matrix(self, dim: int, probes: int) -> np.ndarray:
        """Complex Rademacher probes from the current loop's stream."""
        z = self.rng.integers(0, 4, size=(dim, probes))
        return np.exp(0.5j * np.pi * z).astype(np.complex64)

    def loop_trace(self, lp: Loop, probes: int = 8) -> float:
        """tr(d_v X_w) for this sample, normalized by 1/(N M).

        Length-2 loops of an edge and its opposite are summed exactly
        elementwise; longer words use an unbiased Hutchinson estimate driven
        by matrix-vector chains (an exact dense product at the acceptance
        sizes would need tens of teraflops).  Probe noise is part of the
        reported sampling error.
        """
        spec = self.spec
        self.rng = default_rng(
            [spec.seed ^ 0x5DEECE66D, self.sample_index, spec.N, spec.M,
             lp.base, len(lp.edges), *lp.edges])
        return _loop_trace(self, lp, probes)


def sample_model(spec: BlockModelSpec, sample_index: int = 0) -> SampledModel:
    return SampledModel(spec, sample_index)


def _loop_trace(model, lp: Loop, probes: int) -> float:
    """The normalized trace of `lp` on `model`, through the model's
    `frobenius_sq`, `probe_matrix` and `apply_block`."""
    spec = model.spec
    norm = 1.0 / (spec.N * spec.M)
    if len(lp.edges) == 0:
        return spec.tr_d(lp.base)
    if len(lp.edges) == 2 and lp.edges[1] == (lp.edges[0] ^ 1):
        return norm * model.frobenius_sq(lp.edges[0])
    z = model.probe_matrix(spec.block_dim(lp.base), probes)
    w = z
    for e in reversed(lp.edges):
        w = model.apply_block(e, w)
    vals = np.einsum("ij,ij->j", z.conj(), w)
    return norm * float(vals.mean().real)


def _new_directions(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the part of span(v) outside span(basis).

    Two Gram-Schmidt passes, then an SVD that drops directions below 1e-10
    of |v|: once the queried directions fill a small block, what remains of
    v is rounding, and those dependent directions are dropped.
    """
    r = v - basis @ (basis.conj().T @ v)
    r -= basis @ (basis.conj().T @ r)
    u, s, _ = np.linalg.svd(r, full_matrices=False)
    return u[:, s > 1e-10 * np.linalg.norm(v)]


class _LazyBlock:
    """One rows x cols block of iid CN(0, var), known only where queried.

    P (rows x p) and Q (cols x q) are orthonormal bases of the left- and
    right-queried directions, with A = P* X and B = (I - P P*) X Q, so

        X = P A + B Q* + (I - P P*) X (I - Q Q*),

    and the last term is fresh iid Gaussian on the complementary subspaces
    whatever was queried before.  A new direction therefore needs only one
    fresh Gaussian row or column, projected off the known subspace.
    """

    def __init__(self, rows: int, cols: int, var: float,
                 rng: np.random.Generator):
        self.var, self.rng = var, rng
        self.P = np.zeros((rows, 0), dtype=np.complex128)
        self.A = np.zeros((0, cols), dtype=np.complex128)
        self.Q = np.zeros((cols, 0), dtype=np.complex128)
        self.B = np.zeros((rows, 0), dtype=np.complex128)

    def _gaussian(self, rows: int, cols: int) -> np.ndarray:
        z = self.rng.standard_normal((rows, 2 * cols)).view(np.complex128)
        return z * math.sqrt(self.var / 2.0)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X v."""
        new = _new_directions(self.Q, v)
        if new.shape[1]:
            g = self._gaussian(self.B.shape[0], new.shape[1])   # G Q_new
            g -= self.P @ (self.P.conj().T @ g)
            self.B = np.hstack([self.B, g])
            self.Q = np.hstack([self.Q, new])
        return self.P @ (self.A @ v) + self.B @ (self.Q.conj().T @ v)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X* u."""
        new = _new_directions(self.P, u)
        if new.shape[1]:
            h = self._gaussian(new.shape[1], self.A.shape[1])   # P_new* G
            h -= (h @ self.Q) @ self.Q.conj().T
            nb = new.conj().T @ self.B
            self.A = np.vstack([self.A, nb @ self.Q.conj().T + h])
            self.B = self.B - new @ nb
            self.P = np.hstack([self.P, new])
        return self.A.conj().T @ (self.P.conj().T @ u)

    def frobenius_sq(self) -> float:
        """||X||_F^2 = ||A||^2 + ||B||^2 + var * Gamma((R - p)(C - q))."""
        rows, p = self.P.shape
        cols, q = self.Q.shape
        known = float(np.vdot(self.A, self.A).real + np.vdot(self.B, self.B).real)
        return known + self.var * float(self.rng.gamma((rows - p) * (cols - q)))


class MatrixFreeModel:
    """Sample `sample_index` of the block model, drawn lazily per loop.

    Each `loop_trace` call starts from unqueried blocks and the stream
    default_rng([seed, sample index, N, M, base, length, *edges]), so a
    loop's value depends neither on its batch-mates nor on the thread
    count, and grid sizes are sampled independently.  `blocks` holds the
    `_LazyBlock`s of the latest call.
    """

    def __init__(self, spec: BlockModelSpec, sample_index: int = 0):
        self.spec = spec
        self.sample_index = sample_index
        self.blocks: dict[int, _LazyBlock] = {}
        self.rng: np.random.Generator | None = None

    def loop_trace(self, lp: Loop, probes: int = 8) -> float:
        """tr(d_v X_w) for this sample, normalized by 1/(N M)."""
        spec, g = self.spec, self.spec.alg.g
        self.rng = default_rng(
            [spec.seed, self.sample_index, spec.N, spec.M, lp.base,
             len(lp.edges), *lp.edges])
        self.blocks = {e: _LazyBlock(spec.block_dim(g.src(e)),
                                     spec.block_dim(g.tgt(e)),
                                     spec.entry_variance(e), self.rng)
                       for e in g.positive_edges()}
        return _loop_trace(self, lp, probes)

    def apply_block(self, e: int, w: np.ndarray) -> np.ndarray:
        if e in self.blocks:
            return self.blocks[e].matvec(w)
        return self.blocks[e ^ 1].rmatvec(w)

    def frobenius_sq(self, e: int) -> float:
        return self.blocks.get(e, self.blocks.get(e ^ 1)).frobenius_sq()

    def probe_matrix(self, dim: int, probes: int) -> np.ndarray:
        z = self.rng.integers(0, 4, size=(dim, probes))
        return np.exp(0.5j * np.pi * z)


MATRIX_FREE, DENSE = "matrix-free", "dense"


def engine_for(spec: BlockModelSpec, loops, probes: int) -> str:
    """The engine the estimators use for `loops` at `spec`'s size.

    On each block the Hutchinson chains query at most r = probes x (letters
    of the block, e or e', in the longest such loop) directions per side.
    Matrix-free costs about (R + C) r^2 per chain against R C Gaussian
    values per dense draw, so it is chosen when 16 r <= min(R, C) on every
    block, and dense otherwise.

    Measured on a3 at N = M = 40 (smaller side 1600; 2-core x86-64 VM,
    numpy 2.4 with OpenBLAS, one thread per estimator), matrix-free over
    dense time per sample for the batch of the 6- to 12-letter words
    e1 e1' e2 e2' ... was 0.13, 0.30-0.38, 0.63-0.70, 0.63-0.83, 1.09 and
    1.32-1.37 at r = 24, 48, 96, 144, 192 and 240.  The engines cost the
    same near r = 170, about min(R, C) / 9; the factor 16 switches at
    r = 100, giving up some speed below the crossover rather than risk a
    slower run above it.
    """
    g = spec.alg.g
    for e in g.positive_edges():
        letters = max((sum(x in (e, e ^ 1) for x in lp.edges) for lp in loops),
                      default=0)
        side = min(spec.block_dim(g.src(e)), spec.block_dim(g.tgt(e)))
        if 16 * probes * letters > side:
            return DENSE
    return MATRIX_FREE


@dataclass
class TraceEstimate:
    mean: float
    stderr: float
    samples: int
    target: float

    @property
    def abs_err(self) -> float:
        return abs(self.mean - self.target)


def loop_target(alg: LoopAlgebra, lp: Loop) -> float:
    """Limit value mu(v) phi_v(w) of the normalized block trace."""
    return alg.pf.mu[lp.base] * _phi_word(alg, lp.edges)


def _sample_table(specs: list[BlockModelSpec], loops: list[Loop],
                  samples: int, probes: int, threads: int) -> np.ndarray:
    """samples x sizes x loops array of per-sample normalized traces.

    The engine is `engine_for` at the largest size; each size is evaluated
    on its own model of sample i.  Sample i always uses the streams of
    (seed, i) and the rows come back in index order, so results do not
    depend on the thread count.
    """
    big = max(specs, key=lambda s: s.N * s.M)
    matrix_free = engine_for(big, loops, probes) == MATRIX_FREE
    local = threading.local()

    def one(i: int) -> list[list[float]]:
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = {}
        out = []
        for spec in specs:
            model = MatrixFreeModel(spec, i) if matrix_free \
                else SampledModel(spec, i, workspace=ws)
            out.append([model.loop_trace(lp, probes) for lp in loops])
        return out

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            data = list(pool.map(one, range(samples)))
    else:
        data = [one(i) for i in range(samples)]
    return np.asarray(data)


def _mean_stderr(col: np.ndarray) -> tuple[float, float]:
    n = len(col)
    stderr = float(col.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(col.mean()), stderr


def estimate_traces(spec: BlockModelSpec, loops, samples: int,
                    probes: int = 8, threads: int = 1) -> list[TraceEstimate]:
    """Monte Carlo estimates for a batch of loops over shared samples.

    The engine is `engine_for(spec, loops, probes)`; sample i always uses
    the streams of (seed, i), so results do not depend on the thread count.
    """
    loops = list(loops)
    table = _sample_table([spec], loops, samples, probes, threads)[:, 0, :]
    return [TraceEstimate(*_mean_stderr(table[:, j]), samples,
                          loop_target(spec.alg, lp))
            for j, lp in enumerate(loops)]


def estimate_trace(spec: BlockModelSpec, lp: Loop, samples: int,
                   probes: int = 8, threads: int = 1) -> TraceEstimate:
    return estimate_traces(spec, [lp], samples, probes, threads)[0]


def convergence_sweep(alg: LoopAlgebra, loops, size_grid, samples: int,
                      seed: int = 0, probes: int = 4,
                      threads: int = 1) -> dict[Loop, list[dict]]:
    """Estimates across a grid of (N, M) sizes; one row list per loop.

    The engine is `engine_for` at the largest size, and every size draws
    its own model of each sample index.  Dense models of different sizes
    read overlapping stretches of the seed's stream, so their rows may be
    correlated; each row on its own is an unbiased estimate.
    """
    loops = list(loops)
    grid = list(size_grid)
    specs = [BlockModelSpec(alg, n, m, seed) for (n, m) in grid]
    table = _sample_table(specs, loops, samples, probes, threads)
    rows: dict[Loop, list[dict]] = {lp: [] for lp in loops}
    for si, (n, m) in enumerate(grid):
        for j, lp in enumerate(loops):
            mean, stderr = _mean_stderr(table[:, si, j])
            target = loop_target(alg, lp)
            rows[lp].append({
                "N": n, "M": m, "samples": samples, "seed": seed,
                "estimate": mean, "stderr": stderr,
                "target": target, "abs_err": abs(mean - target),
            })
    return rows


def trend_non_increasing(rows: list[dict], slack_sigmas: float = 3.0) -> bool:
    """Bias-shrinking diagnostic: the last grid point must not be worse than
    the first beyond combined sampling noise."""
    if len(rows) < 2:
        return True
    first, last = rows[0], rows[-1]
    slack = slack_sigmas * (first["stderr"] + last["stderr"])
    return last["abs_err"] <= first["abs_err"] + slack
