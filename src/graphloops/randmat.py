"""Gaussian block random-matrix model whose expected block traces converge
to the center-valued trace of loops.

Each positively oriented edge e carries an (N M_{s(e)}) x (N M_{t(e)}) block
of iid complex Gaussians with E|entry|^2 = (mu(s) mu(t))^{-1/2} / (N M); the
opposite edge is the adjoint block.  The normalized trace divides by N M, so
tr(d_v) = M_v / M -> mu(v).  For a loop w based at v,

    E tr(d_v X_w)  ->  mu(v) phi_v(w)   (M, N -> infinity).

A loop's trace on one sample is an unbiased Hutchinson estimate driven by
matrix-vector chains (length-2 loops e e' are summed exactly).  The sampler
(`SampledModel`) never holds a block: it draws each one only along the
directions the chain queries.  Given the queried left and right subspaces,
the rest of an iid Gaussian block is fresh iid Gaussian, so each query costs
O(block side x queried rank) and the model is exact in law.  Sample i is
reproducible from (seed, i) regardless of thread count.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from ._normals import normals
from .elements import Loop, LoopAlgebra
from .traces import _phi_word

_PHASES = np.exp(0.5j * np.pi * np.arange(4))    # i^z, as np.exp gives it


@dataclass(frozen=True)
class BlockModelSpec:
    alg: LoopAlgebra
    N: int
    M: int
    seed: int = 0
    M_v: tuple[int, ...] = field(init=False)

    def __post_init__(self):
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


def _ct(a, b):
    """a* b, conjugating the thinner factor b rather than copying a."""
    return (b.conj().T @ a).conj().T


def _new_directions(basis: np.ndarray, v: np.ndarray):
    """(c, new, R) with v = basis c + new R, new orthonormal off span(basis).

    Two Gram-Schmidt passes leave a residual r = new R, factored by Cholesky
    QR done twice when every pivot of the first factor exceeds 1e-6 |v|, far
    above the rounding of its Gram matrix.  Failing that, some direction of
    v may be rounding (as when the queried directions fill a small block),
    and an SVD keeps only the singular directions above 1e-10 |v|.
    """
    c = _ct(basis, v)
    r = v - basis @ c
    r -= basis @ _ct(basis, r)
    tol = 1e-10 * np.linalg.norm(v)
    with suppress(np.linalg.LinAlgError):
        f1 = np.linalg.cholesky(r.conj().T @ r)
        if np.diagonal(f1).real.min() > 1e4 * tol:
            q = r @ np.linalg.inv(f1).conj().T
            f2 = np.linalg.cholesky(q.conj().T @ q)
            return c, q @ np.linalg.inv(f2).conj().T, (f1 @ f2).conj().T
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    keep = s > tol
    return c, u[:, keep], s[keep, None] * vh[keep]


def _grow(buf: np.ndarray, n: int) -> np.ndarray:
    """`buf` when it has n rows, else a copy with room for 2 n."""
    return buf if len(buf) >= n else np.resize(buf, (2 * n, buf.shape[1]))


class _LazyBlock:
    """One rows x cols block of iid CN(0, var), known only where queried.

    P (rows x p) and Q (cols x q) are orthonormal bases of the left- and
    right-queried directions, A = P* X, and G holds the Gaussian column
    drawn for each direction of Q, so that (I - P P*) X Q = (I - P P*) G and

        X = P A + (I - P P*) G Q* + (I - P P*) X (I - Q Q*).

    The last term is fresh iid Gaussian on the complementary subspaces
    whatever was queried before, so a new direction needs only one fresh
    Gaussian row or column.  G is projected off P only when it is read.
    P^T, A, Q^T and G^T lead buffers of `p_cap` or `q_cap` rows (`probes`
    per letter of a loop), regrown when a query overruns them.
    """

    P = property(lambda self: self._Pt[:self.p].T)
    A = property(lambda self: self._A[:self.p])
    Q = property(lambda self: self._Qt[:self.q].T)
    G = property(lambda self: self._Gt[:self.q].T)

    def __init__(self, rows: int, cols: int, var: float,
                 rng: np.random.Generator, p_cap: int = 0, q_cap: int = 0):
        self.var, self.rng, self.p, self.q = var, rng, 0, 0
        self._Pt, self._A = (np.empty((min(p_cap, rows), n), np.complex128)
                             for n in (rows, cols))
        self._Qt, self._Gt = (np.empty((min(q_cap, cols), n), np.complex128)
                              for n in (cols, rows))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X v = P (A v - P* y) + y, y = G c + g R for v = Q c + Q_new R."""
        c, new, r = _new_directions(self.Q, v)
        y = self.G @ c
        q, k = self.q, new.shape[1]
        if k:
            g = normals(self.rng, self._Gt.shape[1], k, self.var)
            self._Qt, self._Gt = _grow(self._Qt, q + k), _grow(self._Gt, q + k)
            self._Qt[q:q + k], self._Gt[q:q + k], self.q = new.T, g.T, q + k
            y += g @ r
        return self.P @ (self.A @ v - _ct(self.P, y)) + y

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X* u = A* d + a* R, for u = P d + P_new R; a joins A."""
        d, new, r = _new_directions(self.P, u)
        out = _ct(self.A, d)
        p, k = self.p, new.shape[1]
        if k:
            # a = P_new* G Q* + P_new* X (I - Q Q*), as P_new* P = 0
            h = normals(self.rng, k, self._A.shape[1], self.var)
            nb = new.conj().T @ self.G
            h += (self.Q @ (nb - h @ self.Q).conj().T).conj().T
            self._Pt, self._A = _grow(self._Pt, p + k), _grow(self._A, p + k)
            self._Pt[p:p + k], self._A[p:p + k], self.p = new.T, h, p + k
            out += _ct(h, r)
        return out

    def frobenius_sq(self) -> float:
        """||X||_F^2 = ||A||^2 + ||(I - PP*) G||^2 + var Gamma((R - p)(C - q))."""
        rows, p = self.P.shape
        cols, q = self.Q.shape
        b = self.G - self.P @ _ct(self.P, self.G)
        known = float(np.vdot(self.A, self.A).real + np.vdot(b, b).real)
        return known + self.var * float(self.rng.gamma((rows - p) * (cols - q)))


class SampledModel:
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
        """tr(d_v X_w) for this sample, normalized by 1/(N M).

        Length-2 loops of an edge and its opposite are summed exactly from
        the block's Frobenius norm; longer words use an unbiased Hutchinson
        estimate driven by matrix-vector chains, one `apply_block` per
        letter.  Probe noise is part of the reported sampling error.
        """
        spec, g = self.spec, self.spec.alg.g
        self.rng = default_rng(
            [spec.seed, self.sample_index, spec.N, spec.M, lp.base,
             len(lp.edges), *lp.edges])
        self.blocks = {e: _LazyBlock(spec.block_dim(g.src(e)),
                                     spec.block_dim(g.tgt(e)),
                                     spec.entry_variance(e), self.rng,
                                     probes * lp.edges.count(e ^ 1),
                                     probes * lp.edges.count(e))
                       for e in g.positive_edges()}
        norm = 1.0 / (spec.N * spec.M)
        if len(lp.edges) == 0:
            return spec.tr_d(lp.base)
        if len(lp.edges) == 2 and lp.edges[1] == (lp.edges[0] ^ 1):
            block = self.blocks.get(lp.edges[0]) or self.blocks[lp.edges[0] ^ 1]
            return norm * block.frobenius_sq()
        z = self.probe_matrix(spec.block_dim(lp.base), probes)
        w = z
        for e in reversed(lp.edges):
            w = self.apply_block(e, w)
        vals = np.einsum("ij,ij->j", z.conj(), w)
        return norm * float(vals.mean().real)

    def apply_block(self, e: int, w: np.ndarray) -> np.ndarray:
        """X_e @ w; a negative edge answers as the adjoint of its opposite."""
        if e in self.blocks:
            return self.blocks[e].matvec(w)
        return self.blocks[e ^ 1].rmatvec(w)

    def probe_matrix(self, dim: int, probes: int) -> np.ndarray:
        """Complex Rademacher probes from the current loop's stream."""
        return _PHASES[self.rng.integers(0, 4, size=(dim, probes))]


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


def estimate_traces(spec: BlockModelSpec, loops, samples: int,
                    probes: int = 8, threads: int = 1) -> list[TraceEstimate]:
    """Monte Carlo estimates for a batch of loops over shared samples.

    Sample i evaluates every loop on its own `SampledModel(spec, i)`, whose
    streams are keyed on (seed, i, N, M) and the loop, and the samples come
    back in index order, so results do not depend on the thread count.  A
    standard error needs at least two samples.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    loops = list(loops)

    def one(i: int) -> list[float]:
        model = SampledModel(spec, i)
        return [model.loop_trace(lp, probes) for lp in loops]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            data = list(pool.map(one, range(samples)))
    else:
        data = [one(i) for i in range(samples)]
    table = np.asarray(data)
    return [TraceEstimate(float(col.mean()),
                          float(col.std(ddof=1) / math.sqrt(samples)),
                          samples, loop_target(spec.alg, lp))
            for col, lp in zip(table.T, loops)]


def convergence_sweep(alg: LoopAlgebra, loops, size_grid, samples: int,
                      seed: int = 0, probes: int = 4,
                      threads: int = 1) -> dict[Loop, list[dict]]:
    """Estimates across a grid of (N, M) sizes; one row list per loop.

    Each size is one `estimate_traces` call on `BlockModelSpec(alg, N, M,
    seed)`, whose streams are keyed on (N, M), so the rows are independent
    estimates.
    """
    loops = list(loops)
    rows: dict[Loop, list[dict]] = {lp: [] for lp in loops}
    for n, m in size_grid:
        estimates = estimate_traces(BlockModelSpec(alg, n, m, seed), loops,
                                    samples, probes, threads)
        for lp, est in zip(loops, estimates):
            rows[lp].append({
                "N": n, "M": m, "samples": samples, "seed": seed,
                "estimate": est.mean, "stderr": est.stderr,
                "target": est.target, "abs_err": est.abs_err,
            })
    return rows


def trend_non_increasing(rows: list[dict]) -> bool:
    """Bias-shrinking diagnostic: the last grid point must not be worse than
    the first beyond three combined standard errors."""
    if len(rows) < 2:
        return True
    first, last = rows[0], rows[-1]
    slack = 3.0 * (first["stderr"] + last["stderr"])
    return last["abs_err"] <= first["abs_err"] + slack
