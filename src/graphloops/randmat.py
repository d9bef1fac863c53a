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
the rest of an iid Gaussian block is fresh iid Gaussian, and the blocks'
law is invariant under a unitary on each vertex space, so a fresh draw's
part on the axes no query has seen may be replaced by its Bartlett factor
on new axes.  The chain so works in the r coordinates it has queried at
each vertex (r <= probes x the letters ending there, plus one at the base)
and each query costs O(r x queried rank), whatever the block side, while
the model stays exact in law.  Sample i is reproducible from (seed, i)
regardless of thread count.
"""

from __future__ import annotations

import math
import os
import threading
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


def _fit(buf: np.ndarray, n: int, m: int) -> np.ndarray:
    """`buf` when it has n rows of m columns, else a zero-padded copy grown
    to them."""
    rows, cols = buf.shape
    if rows >= n and cols >= m:
        return buf
    out = np.zeros((max(rows, n), max(cols, m)), buf.dtype)
    out[:rows, :cols] = buf
    return out


class _Space:
    """A vertex space of n axes, of which the queries so far use the first r.

    Every vector a loop has seen or produced on the space lies on those r
    axes and is held as its r coordinates.
    """

    def __init__(self, n: int):
        self.n, self.r = n, 0


class _LazyBlock:
    """One block of iid CN(0, var) from space `cols` to space `rows`,
    known only where queried.

    P (rows x p) and Q (cols x q) are orthonormal bases of the left- and
    right-queried directions, A = P* X, and G holds the Gaussian column
    drawn for each direction of Q, so that (I - P P*) X Q = (I - P P*) G and

        X = P A + (I - P P*) G Q* + (I - P P*) X (I - Q Q*).

    The last term is fresh iid Gaussian on the complementary subspaces
    whatever was queried before, so a new direction needs only one fresh
    Gaussian row or column.  G is projected off P only when it is read.

    Every vector, given, answered or stored, is held in the r coordinates
    of its `_Space`, fresh draws entering by `_fresh`; a caller holding
    whole vectors first sets each space's r to its n.  P^T, A, Q^T and G^T
    lead buffers that start empty and outlive the queries: `restart`
    forgets the queries and keeps the buffers, a query grows one to the
    rows and width it needs, and a vector stored shorter than its space's r
    reads as zero-padded.
    """

    P = property(lambda self: self._read("_Pt", self.p, self.left).T)
    A = property(lambda self: self._read("_A", self.p, self.right))
    Q = property(lambda self: self._read("_Qt", self.q, self.right).T)
    G = property(lambda self: self._read("_Gt", self.q, self.left).T)

    def __init__(self, rows: _Space, cols: _Space, var: float,
                 rng: np.random.Generator | None):
        self.left, self.right, self.var = rows, cols, var
        self._Pt, self._A, self._Qt, self._Gt = (
            np.empty((0, 0), np.complex128) for _ in range(4))
        self.restart(rng)

    def restart(self, rng: np.random.Generator | None):
        """Forget every query: the block is a fresh draw from `rng`, and
        its spaces use no axis."""
        self.rng, self.p, self.q = rng, 0, 0
        self.left.r = self.right.r = 0

    def _read(self, name: str, n: int, space: _Space) -> np.ndarray:
        """The first n vectors of buffer `name` in the r coordinates of
        `space`."""
        buf = _fit(getattr(self, name), n, space.r)
        setattr(self, name, buf)
        return buf[:n, :space.r]

    def _store(self, name: str, at: int, rows: np.ndarray):
        """Write `rows` as vectors `at`... of buffer `name`, zero past
        their length."""
        k, m = rows.shape
        buf = _fit(getattr(self, name), at + k, m)
        buf[at:at + k, :m] = rows
        buf[at:at + k, m:] = 0
        setattr(self, name, buf)

    def _fresh(self, space: _Space, k: int) -> np.ndarray:
        """k fresh CN(0, var) vectors of `space`, as columns, in coordinates.

        Their part on the r known axes is drawn as it is.  Their part on
        the n - r unseen ones is an iid Gaussian matrix U T (U orthonormal,
        T upper trapezoidal), and a unitary on the unseen axes, which no
        query has seen, takes U to t = min(k, n - r) new axes: by Bartlett,
        |T_jj|^2 / var ~ Gamma(n - r - j) and T_ij ~ CN(0, var) for i < j.
        """
        r = space.r
        t = min(k, space.n - r)
        g = normals(self.rng, r + t, k, self.var)
        if t:
            g[r:] = np.triu(g[r:])
            j = np.arange(t)
            diag = self.rng.standard_gamma(space.n - r - j)
            g[r + j, j] = np.sqrt(self.var * diag)
            space.r = r + t
        return g

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X v = P (A v - P* y) + y, y = G c + g R for v = Q c + Q_new R."""
        c, new, r = _new_directions(self.Q, v)
        q, k = self.q, new.shape[1]
        if k:
            g = self._fresh(self.left, k)
            self._store("_Qt", q, new.T)
            self._store("_Gt", q, g.T)
            self.q = q + k
        G, P = self.G, self.P
        y = G[:, :q] @ c + G[:, q:] @ r
        return P @ (self.A @ v - _ct(P, y)) + y

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X* u = A* d + a* R, for u = P d + P_new R; a joins A."""
        d, new, r = _new_directions(self.P, u)
        p, k = self.p, new.shape[1]
        if k:
            # a = P_new* G Q* + P_new* X (I - Q Q*), as P_new* P = 0
            h = self._fresh(self.right, k).T
            Q = self.Q
            h += (Q @ (new.conj().T @ self.G - h @ Q).conj().T).conj().T
            self._store("_Pt", p, new.T)
            self._store("_A", p, h)
            self.p = p + k
        A = self.A
        return _ct(A[:p], d) + _ct(A[p:], r)


def _blocks(spec: BlockModelSpec):
    """The vertex spaces and one unqueried `_LazyBlock` per positive edge."""
    g = spec.alg.g
    spaces = [_Space(spec.block_dim(v)) for v in range(g.n_vertices)]
    return spaces, {e: _LazyBlock(spaces[g.src(e)], spaces[g.tgt(e)],
                                  spec.entry_variance(e), None)
                    for e in g.positive_edges()}


class SampledModel:
    """Sample `sample_index` of the block model, drawn lazily per loop.

    Each `loop_trace` call restarts the blocks, unqueried, on the stream
    default_rng([seed, sample index, N, M, base, length, *edges]), so a
    loop's value depends neither on its batch-mates nor on the thread
    count, and grid sizes are sampled independently.  `spaces` (one per
    vertex) and `blocks` (one per positive edge) hold the latest call's
    queries, and every call refills them in place; `estimate_traces` hands
    each sample the ones its worker keeps.
    """

    def __init__(self, spec: BlockModelSpec, sample_index: int = 0):
        self.spec = spec
        self.sample_index = sample_index
        self.spaces, self.blocks = _blocks(spec)
        self.rng: np.random.Generator | None = None

    def loop_trace(self, lp: Loop, probes: int = 8) -> float:
        """tr(d_v X_w) for this sample, normalized by 1/(N M).

        Length-2 loops of an edge and its opposite are summed exactly from
        the block's squared Frobenius norm, var Gamma(R C) for an unqueried
        R x C block; longer words use an unbiased Hutchinson estimate driven
        by matrix-vector chains, one `apply_block` per letter.  Probe noise
        is part of the reported sampling error.
        """
        spec = self.spec
        self.rng = default_rng(
            [spec.seed, self.sample_index, spec.N, spec.M, lp.base,
             len(lp.edges), *lp.edges])
        for block in self.blocks.values():
            block.restart(self.rng)
        norm = 1.0 / (spec.N * spec.M)
        if len(lp.edges) == 0:
            return spec.tr_d(lp.base)
        if len(lp.edges) == 2 and lp.edges[1] == (lp.edges[0] ^ 1):
            block = self.blocks.get(lp.edges[0]) or self.blocks[lp.edges[0] ^ 1]
            size = block.left.n * block.right.n
            return norm * (block.var * float(self.rng.gamma(size)))
        # z = B R with B orthonormal, and the model is unitarily invariant,
        # so B may be the first axes of the base space
        z = self.probe_matrix(spec.block_dim(lp.base), probes)
        z = _new_directions(z[:, :0], z)[2]
        self.spaces[lp.base].r = len(z)
        w = z
        for e in reversed(lp.edges):
            w = self.apply_block(e, w)
        vals = np.einsum("ij,ij->j", z.conj(), w[:len(z)])
        return norm * float(vals.mean().real)

    def apply_block(self, e: int, w: np.ndarray) -> np.ndarray:
        """X_e @ w; a negative edge answers as the adjoint of its opposite.

        `w` and the answer are in the coordinates of their vertex spaces."""
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
    back in index order, so results do not depend on the thread count.
    Each of the min(threads, samples, CPUs) workers keeps one set of
    blocks, which every loop of every sample it runs refills in place.  A
    standard error needs at least two samples.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    loops = list(loops)
    workers = min(threads, samples, os.cpu_count() or 1)
    kept = threading.local()

    def one(i: int) -> list[float]:
        model = SampledModel(spec, i)
        if not hasattr(kept, "blocks"):
            kept.spaces, kept.blocks = model.spaces, model.blocks
        model.spaces, model.blocks = kept.spaces, kept.blocks
        return [model.loop_trace(lp, probes) for lp in loops]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
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
