"""Gaussian block random-matrix model whose expected block traces converge
to the center-valued trace of loops.

Each positively oriented edge e carries an (N M_{s(e)}) x (N M_{t(e)}) block
of iid complex Gaussians with E|entry|^2 = (mu(s) mu(t))^{-1/2} / (N M); the
opposite edge is the adjoint block.  The normalized trace divides by N M, so
tr(d_v) = M_v / M -> mu(v).  For a loop w based at v,

    E tr(d_v X_w)  ->  mu(v) phi_v(w)   (M, N -> infinity).

A loop's trace on one sample is an unbiased Hutchinson estimate driven by
matrix-vector chains (length-2 loops e e' are summed exactly).  The sampler
(`SampledModel`) draws each block only along the directions the chain
queries, and as the law is invariant under a unitary on each vertex space,
a fresh draw's part on axes no query has seen enters as its Bartlett
factor on new axes: the chain works, exact in law, in the r_v <= probes x
(letters ending at v, plus one at the base) coordinates it has queried.  A
group of samples runs a loop as one stack, each sample on its own stream,
so sample i is reproducible from (seed, i) whatever its group and thread.
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
_BUDGET = 1 << 19    # complex values of a group's buffers; 1/16 a probe chunk


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


def _h(x):
    """The conjugate transpose of each matrix of a stack."""
    return x.conj().swapaxes(1, 2)


def _ct(a, b):
    """a* b, conjugating the thinner factor b rather than copying a."""
    return _h(_h(b) @ a)


class _Ragged(Exception):
    """The samples args[0] of a stack and the rest part ways."""


def _cholesky(gram: np.ndarray, floor: np.ndarray, room: int):
    """Cholesky factors of a stack of Gram matrices of vectors in `room`
    dimensions if each sample's pivots exceed its `floor`, None if no
    sample's do (as with less room than vectors), `_Ragged` if some do."""
    if room < gram.shape[2]:
        return None
    try:
        f = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:           # which samples fail, one by one
        f = np.zeros_like(gram)
        for s, one in enumerate(gram):
            with suppress(np.linalg.LinAlgError):
                f[s] = np.linalg.cholesky(one)
    ok = np.diagonal(f, axis1=1, axis2=2).real.min(1) > floor
    if ok.any() and not ok.all():
        raise _Ragged(ok)
    return f if ok.all() else None


def _new_directions(basis: np.ndarray, v: np.ndarray):
    """(c, new, R) with v = basis c + new R, new orthonormal off span(basis),
    for each sample of a stack.

    Two Gram-Schmidt passes leave a residual r = new R, factored by Cholesky
    QR done twice when every pivot of the first factor exceeds 1e-6 |v|, far
    above the rounding of its Gram matrix; else (as when the queries fill a
    small block) an SVD keeps the singular directions above 1e-10 |v|."""
    c = _ct(basis, v)
    r = v - basis @ c
    r -= basis @ _ct(basis, r)
    tol = 1e-10 * np.linalg.norm(v, axis=(1, 2))
    f1 = _cholesky(_h(r) @ r, 1e4 * tol, r.shape[1] - basis.shape[2])
    if f1 is not None:
        q = r @ _h(np.linalg.inv(f1))
        f2 = np.linalg.cholesky(_h(q) @ q)
        return c, q @ _h(np.linalg.inv(f2)), _h(f1 @ f2)
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    k = (s > tol[:, None]).sum(1)
    if (k != k[0]).any():
        raise _Ragged(k == k[0])
    return c, u[:, :, :k[0]], s[:, :k[0], None] * vh[:, :k[0]]


def _fit(buf: np.ndarray, s: int, n: int, m: int) -> np.ndarray:
    """The first s samples of `buf` when it has n rows of m columns, else a
    zero-padded copy grown to them; a fresh one when it has fewer samples."""
    count, rows, cols = buf.shape
    if count < s:
        return np.zeros((s, n, m), buf.dtype)
    if rows >= n and cols >= m:
        return buf[:s]
    out = np.zeros((s, max(rows, n), max(cols, m)), buf.dtype)
    out[:, :rows, :cols] = buf[:s]
    return out


class _Space:
    """A vertex space of n axes; a loop's vectors on it are held as their
    coordinates on the first r, the axes its queries have used."""

    def __init__(self, n: int):
        self.n, self.r = n, 0


class _LazyBlock:
    """One block of iid CN(0, var) from space `cols` to space `rows`,
    known only where queried, for each sample of a stack.

    P (rows x p) and Q (cols x q) are orthonormal bases of the left- and
    right-queried directions, A = P* X, and G holds the Gaussian column
    drawn for each direction of Q, so that (I - P P*) X Q = (I - P P*) G and

        X = P A + (I - P P*) G Q* + (I - P P*) X (I - Q Q*).

    The last term is fresh iid Gaussian whatever was queried before, so a
    new direction needs one fresh Gaussian row or column; G is projected off
    P only when read.  Every vector is a stack over the samples (which share
    p, q and r) of its r coordinates in its `_Space`; a caller holding whole
    vectors first sets each space's r to its n.  P^T, A, Q^T and G^T lead
    buffers that outlive `restart` and grow to what a query needs.
    """

    P = property(lambda self: self._read("_Pt", self.p, self.left).swapaxes(1, 2))
    A = property(lambda self: self._read("_A", self.p, self.right))
    Q = property(lambda self: self._read("_Qt", self.q, self.right).swapaxes(1, 2))
    G = property(lambda self: self._read("_Gt", self.q, self.left).swapaxes(1, 2))

    def __init__(self, rows: _Space, cols: _Space, var: float, rngs):
        self.left, self.right, self.var = rows, cols, var
        self._Pt, self._A, self._Qt, self._Gt = (
            np.empty((0, 0, 0), np.complex128) for _ in range(4))
        self.restart(rngs)

    def restart(self, rngs):
        """Forget every query: a fresh draw, sample s from rngs[s]."""
        self.rngs, self.p, self.q = rngs, 0, 0
        self.left.r = self.right.r = 0

    def _read(self, name: str, n: int, space: _Space) -> np.ndarray:
        """The first n vectors of buffer `name`, in `space` coordinates."""
        buf = _fit(getattr(self, name), len(self.rngs), n, space.r)
        setattr(self, name, buf)
        return buf[:, :n, :space.r]

    def _store(self, name: str, at: int, rows: np.ndarray):
        """Write `rows` as vectors `at`... of buffer `name`, zero-padded."""
        s, k, m = rows.shape
        buf = _fit(getattr(self, name), s, at + k, m)
        buf[:, at:at + k, :m] = rows
        buf[:, at:at + k, m:] = 0
        setattr(self, name, buf)

    def _fresh(self, space: _Space, k: int) -> np.ndarray:
        """k fresh CN(0, var) vectors of `space`, as columns, in coordinates:
        drawn as they are on the r known axes; on the n - r unseen ones an
        iid Gaussian U T (T upper trapezoidal), which a unitary no query has
        seen takes to t = min(k, n - r) new axes, with, by Bartlett,
        |T_jj|^2 / var ~ Gamma(n - r - j) and T_ij ~ CN(0, var) for i < j."""
        r = space.r
        t = min(k, space.n - r)
        g = normals(self.rngs, r + t, k, self.var)
        if t:
            g[:, r:] = np.triu(g[:, r:])
            j = np.arange(t)
            diag = [rng.standard_gamma(space.n - r - j) for rng in self.rngs]
            g[:, r + j, j] = np.sqrt(self.var * np.array(diag))
            space.r = r + t
        return g

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """X v = P (A v - P* y) + y, y = G c + g R for v = Q c + Q_new R."""
        c, new, r = _new_directions(self.Q, v)
        q, k = self.q, new.shape[2]
        if k:
            g = self._fresh(self.left, k)
            self._store("_Qt", q, new.swapaxes(1, 2))
            self._store("_Gt", q, g.swapaxes(1, 2))
            self.q = q + k
        G, P = self.G, self.P
        y = G[:, :, :q] @ c + G[:, :, q:] @ r
        return P @ (self.A @ v - _ct(P, y)) + y

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X* u = A* d + a* R, for u = P d + P_new R; a joins A."""
        d, new, r = _new_directions(self.P, u)
        p, k = self.p, new.shape[2]
        if k:
            # a = P_new* G Q* + P_new* X (I - Q Q*), as P_new* P = 0
            h = self._fresh(self.right, k).swapaxes(1, 2)
            Q = self.Q
            h += _h(Q @ _h(_h(new) @ self.G - h @ Q))
            self._store("_Pt", p, new.swapaxes(1, 2))
            self._store("_A", p, h)
            self.p = p + k
        A = self.A
        return _ct(A[:, :p], d) + _ct(A[:, p:], r)


def sample_groups(g, lp: Loop, samples: int, probes: int) -> list[range]:
    """Ranges of samples 0..samples-1, each run as one stack: as many as
    `_BUDGET` holds at the word's bound on a sample's buffers (r_v <= probes
    x (letters ending at v, + 1 at the base), p, q <= probes x letters)."""
    r = probes * np.bincount([lp.base, *map(g.src, lp.edges)],
                             minlength=g.n_vertices)
    bound = 1 + sum(2 * probes * sum(f >> 1 == e >> 1 for f in lp.edges)
                    * (r[g.src(e)] + r[g.tgt(e)]) for e in g.positive_edges())
    size = max(1, min(samples, _BUDGET // bound))
    return [range(i, min(i + size, samples)) for i in range(0, samples, size)]


class SampledModel:
    """Samples `samples` (an index or several) of the block model, drawn
    lazily per loop as one stack.

    Each `loop_trace` restarts the blocks with sample i on the stream
    default_rng([seed, i, N, M, base, length, *edges]), so a value depends
    on neither batch-mates, group, grid nor thread count; `spaces` and
    `blocks` hold the latest call's queries, refilled in place."""

    def __init__(self, spec: BlockModelSpec, samples=0):
        self.spec = spec
        self.samples = np.atleast_1d(samples)
        g = spec.alg.g
        self.spaces = [_Space(spec.block_dim(v)) for v in range(g.n_vertices)]
        self.blocks = {e: _LazyBlock(self.spaces[g.src(e)], self.spaces[g.tgt(e)],
                                     spec.entry_variance(e), ())
                       for e in g.positive_edges()}

    def loop_trace(self, lp: Loop, probes: int = 8) -> np.ndarray:
        """tr(d_v X_w) of each sample, normalized by 1/(N M).

        A loop e e' is var Gamma(R C), the squared Frobenius norm of an
        unqueried R x C block; a longer word is an unbiased Hutchinson
        estimate, one `apply_block` per letter, whose probe noise is part of
        the sampling error.  Samples that part ways (`_Ragged`) run again
        as two stacks."""
        return self._traces(lp, probes, self.samples)

    def _traces(self, lp: Loop, probes: int, samples: np.ndarray):
        try:
            return self._stack(lp, probes, samples)
        except _Ragged as split:
            out = np.empty(len(samples))
            for part in (split.args[0], ~split.args[0]):
                out[part] = self._traces(lp, probes, samples[part])
            return out

    def _stack(self, lp: Loop, probes: int, samples: np.ndarray):
        spec = self.spec
        keys = [[spec.seed, int(i), spec.N, spec.M, lp.base, len(lp.edges),
                 *lp.edges] for i in samples]
        rngs = [default_rng(key) for key in keys]
        for block in self.blocks.values():
            block.restart(rngs)
        norm = 1.0 / (spec.N * spec.M)
        if len(lp.edges) == 0:
            return np.full(len(rngs), spec.tr_d(lp.base))
        if len(lp.edges) == 2 and lp.edges[1] == (lp.edges[0] ^ 1):
            block = self.blocks.get(lp.edges[0]) or self.blocks[lp.edges[0] ^ 1]
            size = block.left.n * block.right.n
            return norm * (block.var * np.array([rng.gamma(size) for rng in rngs]))
        # z = B R, B orthonormal, and the model is unitarily invariant, so B
        # may be the base's first axes; R is the Cholesky factor of z* z,
        # drawn in row chunks, unless it fails `_new_directions`'s test (as
        # when probes > n_v): then z is drawn again whole and factored so
        dim, rows = spec.block_dim(lp.base), max(1, (_BUDGET >> 4) // probes)
        gram = np.zeros((len(rngs), probes, probes), np.complex128)
        for s, rng in enumerate(rngs):
            for start in range(0, dim, rows):
                z = self.probe_matrix(min(rows, dim - start), probes, rng)
                gram[s] += z.conj().T @ z
        f = _cholesky(gram, 1e-6 * np.sqrt(np.trace(gram, 0, 1, 2).real), dim)
        if f is None:
            z = np.array([self.probe_matrix(dim, probes, default_rng(key))
                          for key in keys])
            f = _h(_new_directions(z[:, :, :0], z)[2])
        z = _h(f)
        self.spaces[lp.base].r = z.shape[1]
        w = z
        for e in reversed(lp.edges):
            w = self.apply_block(e, w)
        vals = np.einsum("sij,sij->sj", z.conj(), w[:, :z.shape[1]])
        return norm * vals.mean(1).real

    def apply_block(self, e: int, w: np.ndarray) -> np.ndarray:
        """X_e @ w; a negative edge answers as the adjoint of its opposite.

        `w` and the answer are stacks of the samples' coordinates."""
        if e in self.blocks:
            return self.blocks[e].matvec(w)
        return self.blocks[e ^ 1].rmatvec(w)

    def probe_matrix(self, dim: int, probes: int,
                     rng: np.random.Generator) -> np.ndarray:
        """dim rows of complex Rademacher probes from `rng`."""
        return _PHASES[rng.integers(0, 4, size=(dim, probes))]


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

    Each loop runs its `sample_groups` as stacks `SampledModel(spec,
    group)`, streams keyed on (seed, i, N, M) and the loop, so results do
    not depend on the thread count.  Each of the min(threads, samples, CPUs)
    workers takes whole groups and keeps one set of blocks, refilled in
    place.  A standard error needs at least two samples.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, "
                         f"got {samples}")
    loops = list(loops)
    jobs = [(j, group) for j, lp in enumerate(loops)
            for group in sample_groups(spec.alg.g, lp, samples, probes)]
    workers = min(threads, samples, os.cpu_count() or 1)
    kept = threading.local()

    def one(job) -> np.ndarray:
        model = SampledModel(spec, job[1])
        if not hasattr(kept, "blocks"):
            kept.spaces, kept.blocks = model.spaces, model.blocks
        model.spaces, model.blocks = kept.spaces, kept.blocks
        return model.loop_trace(loops[job[0]], probes)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            data = list(pool.map(one, jobs))
    else:
        data = [one(job) for job in jobs]
    table = np.concatenate(data).reshape(len(loops), samples)
    return [TraceEstimate(float(col.mean()),
                          float(col.std(ddof=1) / math.sqrt(samples)),
                          samples, loop_target(spec.alg, lp))
            for col, lp in zip(table, loops)]


def convergence_sweep(alg: LoopAlgebra, loops, size_grid, samples: int,
                      seed: int = 0, probes: int = 4,
                      threads: int = 1) -> dict[Loop, list[dict]]:
    """Estimates across a grid of (N, M) sizes; one row list per loop.

    Each size is one `estimate_traces` call, with streams keyed on (N, M),
    so the rows are independent estimates."""
    loops = list(loops)
    rows: dict[Loop, list[dict]] = {lp: [] for lp in loops}
    for n, m in size_grid:
        estimates = estimate_traces(BlockModelSpec(alg, n, m, seed), loops,
                                    samples, probes, threads)
        for lp, est in zip(loops, estimates):
            rows[lp].append(dict(N=n, M=m, samples=samples, seed=seed,
                                 estimate=est.mean, stderr=est.stderr,
                                 target=est.target, abs_err=est.abs_err))
    return rows


def trend_non_increasing(rows: list[dict]) -> bool:
    """Bias-shrinking diagnostic: the last grid point must not be worse than
    the first beyond three combined standard errors."""
    if len(rows) < 2:
        return True
    first, last = rows[0], rows[-1]
    slack = 3.0 * (first["stderr"] + last["stderr"])
    return last["abs_err"] <= first["abs_err"] + slack
