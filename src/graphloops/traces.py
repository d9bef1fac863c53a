"""Vertex trace functionals, graded traces, inner products and the
free-structure dimension report.

The grade-k trace closes the k-edge frame of each stored loop
(`elements._frame` with sigma^-3, i.e. [mu(s)/mu(t)]^{3/2} per frame
edge), contracts the middle word with the full non-crossing pairing sum,
and places the value at the middle vertex.  This normalization is pinned by
three identities, all enforced in the tests:

* restriction: trace_k on `to_grade` of a level-k element reproduces the
  closed usual-trace formula;
* inclusion: trace_k(include_step(y)) = delta * trace_{k-1}(y) (the extra
  through-string closes into one more loop);
* the Markov property delta tr_k(include(y) ^ e_k) = tr_{k-1}(y).

At k = 0 it is the pairing formula for the vertex functionals, equivalently
the recursion

    phi_v(x) = sum over splittings x = e x1 e-opp x2 of
               sigma(e) phi(x1) phi(x2),       phi(empty) = 1,

which one kernel, `_phi_words`, evaluates bottom-up over the intervals of
an integer word array, vectorized over its rows; no value is cached.

The trace takes values in the functions on the vertices: every
vertex-valued result here is an array of length `g.n_vertices` in the
coefficients' dtype, 0 at every vertex no row reaches.  The scalar tower
weight `phi_frame` is delta^-k times the total mass of the grade-k trace;
unlike the vertex-resolved trace it is preserved (not scaled) by the tower
inclusion.
"""

from __future__ import annotations

import numpy as np

from .graphs import EVEN
from .elements import Element, LoopAlgebra, _frame, _join, _loops, _row_keys
from .ncpairings import (catalan, indecomposable_dimension_series,
                         noncrossing_pairings)


# -- vertex functionals -----------------------------------------------------


_CHUNK = 4096      # rows per pass of the phi kernel; bounds its scratch


def _phi_words(words: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """phi of every row of an n x 2m integer word array, each row read at
    its own starting vertex, with edge weights `sigma[e]`.

    The splitting recursion as an interval table, bottom-up in the
    half-length h and vectorized over rows: G[h][i] = phi(w[i : i + 2h]) is

        sigma(w_i) sum_d [w_{i+2d+1} = opp(w_i)] G[d][i+1] G[h-1-d][i+2d+2],

    summed over increasing d, the order of the recursion.  The matched
    left factor P[d][i] = [w_{i+2d+1} = opp(w_i)] G[d][i+1] is formed once
    per d.  Rows go through `_CHUNK` at a time.
    """
    n, length = words.shape
    out = np.ones(n)
    if length == 0:
        return out
    for lo in range(0, n, _CHUNK):
        w = np.ascontiguousarray(words[lo:lo + _CHUNK].T)   # letters x rows
        sig, opp = sigma[w], w ^ 1
        scratch = np.empty(w.shape)
        table = [np.ones((length + 1, w.shape[1]))]
        left = []
        for h in range(1, length // 2 + 1):
            q = 2 * h - 1                     # the new offset, d = h - 1
            left.append((w[q:] == opp[:length - q])
                        * table[h - 1][1:length - q + 1])
            i = length - 2 * h + 1            # starts of a length-2h interval
            acc = left[0][:i] * table[h - 1][2:i + 2]
            for d in range(1, h):
                np.multiply(left[d][:i], table[h - 1 - d][2 * d + 2:2 * d + 2 + i],
                            out=scratch[:i])
                acc += scratch[:i]
            acc *= sig[:i]
            table.append(acc)
        out[lo:lo + w.shape[1]] = table[-1][0]
    return out


def _sigma_table(alg: LoopAlgebra, sigma=None) -> np.ndarray:
    """sigma per oriented edge: the PF weights, or an override (fault
    injection in tests) evaluated on every edge."""
    if sigma is None:
        return alg._sigma[1]
    return np.array([sigma(e) for e in alg.g.oriented_edges], dtype=float)


def _phi_word(alg: LoopAlgebra, edges: tuple[int, ...], sigma=None) -> float:
    """phi of one closed word at its own starting vertex."""
    words = np.array(edges, dtype=np.intp).reshape(1, len(edges))
    return float(_phi_words(words, _sigma_table(alg, sigma))[0])


def _phi_word_pairing(alg: LoopAlgebra, edges, sigma=None) -> float:
    """Same functional via the explicit sum over non-crossing pairings."""
    sigma = sigma or alg.pf.sigma
    opp = alg.g.opp
    total = 0.0
    for pairing in noncrossing_pairings(len(edges)):
        w = 1.0
        for i, j in pairing:
            if edges[j - 1] != opp(edges[i - 1]):
                w = 0.0
                break
            w *= sigma(edges[i - 1])
        total += w
    return total


def phi_vertex(alg: LoopAlgebra, x: Element, v: int | str,
               method: str = "recursive") -> float:
    """Vertex functional phi_v(x); loops not based at v contribute 0.

    "recursive" is the interval recursion (`trace_k` at grade 0),
    "pairing" the explicit sum over non-crossing pairings.
    """
    v = v if isinstance(v, int) else alg.g.vertex(v)
    if alg.g.parity[v] != x.shading:
        raise ValueError("vertex parity does not match the element shading")
    if method == "recursive":
        return trace_k(alg, 0, x)[v]
    if method != "pairing":
        raise ValueError(f"unknown phi method {method!r}")
    return sum(c * _phi_word_pairing(alg, w) for b, w, c in
               zip(x.base.tolist(), x.words.tolist(), x.coeff.tolist()) if b == v)


def trace_k(alg: LoopAlgebra, k: int, x: Element) -> np.ndarray:
    """Grade-k trace: close the k-edge frame, pair out the middle word.

    One pass over the element's word array: the frame test and its
    sigma^-3 weights per row (`_frame`), the middle words through
    `_phi_words`, and a per-vertex sum at the output vertex (the middle
    vertex, tgt of the k-th edge) in row order.
    """
    if k < 0:
        raise ValueError("trace grade must be >= 0")
    if x.level < k:
        raise ValueError("element level below trace grade")
    words = x.words
    w = x.coeff * _frame(words, k, alg._sigma[-3]) if k else x.coeff
    keep = np.flatnonzero(w != 0)
    v_out = alg._tgt[words[keep, k - 1]] if k else x.base[keep]
    middle = words[:, k:words.shape[1] - k]
    if len(keep) < len(w):        # a full fancy index would copy every row
        middle, w = middle[keep], w[keep]
    return _vertex_sums(alg, v_out, w * _phi_words(middle, alg._sigma[1]))


def usual_trace(alg: LoopAlgebra, x: Element) -> np.ndarray:
    """Closed formula for the trace of a level-k element written in planar
    coordinates: prod_j delta_{a_j = opp(a_{2k+1-j})} sigma(a_j) at the base."""
    w = x.coeff * _frame(x.words, x.level, alg._sigma[1])
    keep = np.flatnonzero(w != 0)
    return _vertex_sums(alg, x.base[keep], w[keep])


def _vertex_sums(alg: LoopAlgebra, v_out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum w per vertex v_out in row order, in w's dtype."""
    sums = np.bincount(v_out, w.real, alg.g.n_vertices).astype(w.dtype)
    if np.iscomplexobj(w):
        sums.imag = np.bincount(v_out, w.imag, alg.g.n_vertices)
    return sums


def phi_frame(alg: LoopAlgebra, x: Element, n: int) -> float:
    """Scalar tower trace at frame depth n: delta^-n times the total mass
    of trace_k(n, x).

    Per basis loop with frame (E_j | F_j) and middle W based at v_mid this
    is delta^-n sqrt(mu(base)/mu(v_mid)) prod_j [E_j = F_j] sigma(E_j)^-2
    phi(W), since prod_j sigma(E_j)^-1 = sqrt(mu(base)/mu(v_mid)).  This is
    the weight for which the tower inclusion is trace-preserving.
    """
    return trace_k(alg, n, x).sum() / alg.pf.delta ** n


# -- inner products and positivity -----------------------------------------


def inner_product(alg: LoopAlgebra, a: Element, b: Element) -> np.ndarray:
    """Vertex-valued pairing <a, b>: nonzero only between a loop and its
    reversal, with weight prod sigma(edge) over the loop."""
    if (a.level, a.shading) != (b.level, b.shading):
        raise ValueError("inner product needs equal levels and shadings")
    ia, ib = _join(_row_keys(a.base, a.words[:, ::-1] ^ 1)[1],
                   _row_keys(b.base, b.words)[1])
    w = np.ones(len(ia))
    for j in range(a.words.shape[1]):
        w *= alg._sigma[1][a.words[ia, j]]
    return _vertex_sums(alg, a.base[ia], a.coeff[ia].conj() * b.coeff[ib] * w)


def gram_matrix(alg: LoopAlgebra, v: int, k: int, sigma=None):
    """Loop basis at (v, k) and the positive-form Gram
    G[x, y] = mu(v) phi_v(dagger(x) wedge_0 y)."""
    base, words = alg.loop_words(k, alg.g.parity[v])
    words = words[base == v]
    return (_loops(base[base == v], words),
            _gram(alg, v, words, _sigma_table(alg, sigma)))


def _gram(alg: LoopAlgebra, v: int, words: np.ndarray,
          sigmas: np.ndarray) -> np.ndarray:
    """The Gram of the loops `words`, all based at v."""
    n = len(words)
    pairs = np.concatenate([np.repeat(words[:, ::-1] ^ 1, n, axis=0),
                            np.tile(words, (n, 1))], axis=1)
    return (alg.pf.mu[v] * _phi_words(pairs, sigmas)).reshape(n, n)


def gram_psd_check(alg: LoopAlgebra, k: int, shading: int = EVEN,
                   sigma=None) -> dict:
    """Per-vertex Gram spectra at level k, from one walk of the loops.

    PASS iff every eigenvalue >= -1e-8; for connected graphs with delta > 1
    the form must also be strictly positive (min eigenvalue > 1e-10).
    """
    report = {"level": k, "vertices": {}, "pass": True}
    faithful_required = alg.pf.delta > 1.0 + 1e-12
    base, words = alg.loop_words(k, shading)
    sigmas = _sigma_table(alg, sigma)
    for v in alg.g.vertices_of_parity(shading):
        at_v = words[base == v]
        if not len(at_v):
            continue
        mat = _gram(alg, v, at_v, sigmas)
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        min_eig = float(eigs[0])
        ok = min_eig >= -1e-8 and (not faithful_required or min_eig > 1e-10)
        report["vertices"][alg.g.vertex_names[v]] = {
            "dim": len(at_v), "min_eig": min_eig, "pass": ok,
        }
        report["pass"] = report["pass"] and ok
    return report


# -- free graded structure ---------------------------------------------------


def _scalar_tl_trace(alg: LoopAlgebra, x: Element) -> float:
    """mu-weighted average of the vertex functionals over even vertices."""
    mu = alg._mu * (np.array(alg.g.parity) == EVEN)
    return mu @ trace_k(alg, 0, x) / mu.sum()


def _numerical_rank(gram: np.ndarray, rel_tol: float = 1e-8) -> int:
    if gram.size == 0:
        return 0
    sv = np.linalg.svd(gram, compute_uv=False)
    top = sv[0] if len(sv) else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * top))


def free_structure_report(alg: LoopAlgebra, nmax: int = 4,
                          rank_tol: float = 1e-8) -> dict:
    """Dimensions of the new-generator spaces of the Temperley-Lieb graded
    algebra, versus the series coefficients of 1 - 1/Phi_TL.

    For each degree n: the full TL Gram rank (should be Catalan(n) for
    delta >= 2), the rank of the span of products of lower-degree diagrams,
    and their difference, compared against the expected coefficient.
    """
    if alg.pf.delta < 2.0 - 1e-9:
        raise ValueError("free-structure report requires delta >= 2")
    expected = indecomposable_dimension_series(nmax)
    rows = []
    ok_all = True
    for n in range(1, nmax + 1):
        pairings = list(noncrossing_pairings(2 * n))
        elems = [alg.tl_element(p) for p in pairings]
        decomposable = [i for i, p in enumerate(pairings) if _splits(p, n)]
        gram = np.zeros((len(elems), len(elems)))
        for i, x in enumerate(elems):
            xd = alg.involution(x)
            for j in range(i, len(elems)):
                val = _scalar_tl_trace(alg, alg.wedge(0, xd, elems[j]))
                gram[i, j] = gram[j, i] = val
        full_rank = _numerical_rank(gram, rank_tol)
        sub = gram[np.ix_(decomposable, decomposable)]
        sub_rank = _numerical_rank(sub, rank_tol)
        dim_new = full_rank - sub_rank
        ok = (full_rank == catalan(n)) and (dim_new == expected[n - 1])
        ok_all = ok_all and ok
        rows.append({
            "degree": n, "tl_dim": full_rank, "catalan": catalan(n),
            "product_span": sub_rank, "dim_new_generators": dim_new,
            "expected": expected[n - 1], "pass": ok,
        })
    return {"rows": rows, "pass": ok_all, "rank_tol": rank_tol}


def _splits(pairing, n: int) -> bool:
    """True if the pairing is a juxtaposition of two non-empty diagrams."""
    ends = {max(p) for p in pairing}
    depth = 0
    for pos in range(1, 2 * n):
        depth += -1 if pos in ends else 1
        if depth == 0:
            return True
    return False
