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
_PAIR_BLOCK = 1 << 16   # pair rows per phi call of `_gram` and `cup_moments`
GRAM_CAP = 1 << 25      # pair rows of a freedim degree or a moments power


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


def phi_vertex(alg: LoopAlgebra, x: Element, v: int | str) -> float:
    """Vertex functional phi_v(x), `trace_k` at grade 0 read at v; loops
    not based at v contribute 0."""
    v = v if isinstance(v, int) else alg.g.vertex(v)
    if alg.g.parity[v] != x.shading:
        raise ValueError("vertex parity does not match the element shading")
    return trace_k(alg, 0, x)[v]


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


def cup_moments(alg: LoopAlgebra, v: int, n: int) -> list[float]:
    """phi_v(cup^m) for m = 0..n: the one-cup element's moments under the
    loop trace at the even vertex v, as a^T Phi b for a, b the coefficients
    of the wedge_0 powers cup^ceil(m/2), cup^floor(m/2) at v and Phi the phi
    of their pair rows; cup^m is never formed, merged or pruned.  MemoryError
    before any wedge if cup^n would have more than GRAM_CAP rows at v."""
    cup = alg.cup()
    if np.count_nonzero(cup.base == v) ** n > GRAM_CAP:
        raise MemoryError("moments pair rows exceed cap")
    powers = [alg.vertex_element(v)]
    for _ in range((n + 1) // 2):
        powers.append(alg.wedge(0, powers[-1], cup))
    halves = ((powers[(m + 1) // 2], powers[m // 2]) for m in range(n + 1))
    return [sum(a.coeff[rows] @ block @ b.coeff for rows, block
                in _pair_blocks(a.words, b.words, alg._sigma[1]))
            for a, b in halves]


def markov_residual(alg: LoopAlgebra, k: int, y: Element) -> float:
    """max_v |delta trace_k(include_step(y) wedge_k e_k) - trace_{k-1}(y)|,
    the Markov property at grade k for y of level k - 1."""
    e_k = alg.jones_projection(k, tower=True)
    top = trace_k(alg, k, alg.wedge(k, alg.include_step(y), e_k))
    return np.abs(alg.pf.delta * top - trace_k(alg, k - 1, y)).max()


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
    """The Gram mu(v) phi(dagger(w_i) w_j) of the loops `words`, all at v."""
    out = np.empty((len(words), len(words)))
    for rows, block in _pair_blocks(words[:, ::-1] ^ 1, words, sigmas):
        out[rows] = block
    return alg.pf.mu[v] * out


def _pair_blocks(left: np.ndarray, right: np.ndarray, sigmas: np.ndarray):
    """(rows, phi(left[rows][i] right[j]) over i, j) for slices `rows` of
    `left`: pair rows whole through `_phi_words`, ~`_PAIR_BLOCK` a block."""
    n = len(right)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    for lo in range(0, len(left), step):
        part = left[lo:lo + step]
        pairs = np.concatenate([np.repeat(part, n, axis=0),
                                np.tile(right, (len(part), 1))], axis=1)
        yield (slice(lo, lo + len(part)),
               _phi_words(pairs, sigmas).reshape(len(part), n))


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


def _tl_gram(alg: LoopAlgebra, elems: list[Element]) -> np.ndarray:
    """G[i, j] = sum_{v even} mu_v phi_v(x_i* wedge_0 x_j) / sum_{v even} mu_v
    for real even elements of one level, as sum_v C_v^T K_v C_v / sum mu_v:
    C_v holds their coefficients on their merged rows U_v at v, K_v = `_gram`."""
    base = np.concatenate([x.base for x in elems])
    words = np.concatenate([x.words for x in elems])
    _, first, u = np.unique(_row_keys(base, words)[1], return_index=True,
                            return_inverse=True)
    c = np.zeros((len(first), len(elems)))
    c[u, np.repeat(np.arange(len(elems)), [len(x.base) for x in elems])] = \
        np.concatenate([x.coeff for x in elems])
    even = alg.g.vertices_of_parity(EVEN)
    gram = np.zeros((len(elems), len(elems)))
    for v in even:
        at = base[first] == v
        gram += c[at].T @ _gram(alg, v, words[first[at]], alg._sigma[1]) @ c[at]
    return gram / alg._mu[even].sum()


def free_structure_report(alg: LoopAlgebra, nmax: int = 4) -> dict:
    """Dimensions of the new-generator spaces of the Temperley-Lieb graded
    algebra, versus the series coefficients of 1 - 1/Phi_TL.

    For each degree n: the rank of the diagrams' Gram `_tl_gram` (should be
    Catalan(n) for delta >= 2), the rank of its block on the products of
    lower-degree diagrams, and their difference, compared against the
    expected coefficient Catalan(n-1).  The products are the diagrams in
    which point 1 does not pair with 2n; ranks are numpy's `matrix_rank`.
    A MemoryError comes before any element is built if the top degree's
    Gram could read more than GRAM_CAP phi rows (closed walks bound the
    loops, and no degree has more than the top one).
    """
    if alg.pf.delta < 2.0 - 1e-9:
        raise ValueError("free-structure report requires delta >= 2")
    a, even = alg.g.adjacency(), alg.g.vertices_of_parity(EVEN)
    walks = np.linalg.matrix_power(a, 2 * nmax).diagonal()[even]
    if np.square(walks).sum() > GRAM_CAP:
        raise MemoryError("freedim Gram exceeds cap")
    expected = indecomposable_dimension_series(nmax)
    rows = []
    ok_all = True
    for n in range(1, nmax + 1):
        pairings = list(noncrossing_pairings(2 * n))
        products = [i for i, p in enumerate(pairings) if (1, 2 * n) not in p]
        gram = _tl_gram(alg, [alg.tl_element(p) for p in pairings])
        full_rank = int(np.linalg.matrix_rank(gram))
        sub_rank = int(np.linalg.matrix_rank(gram[np.ix_(products, products)]))
        dim_new = full_rank - sub_rank
        ok = (full_rank == catalan(n)) and (dim_new == expected[n - 1])
        ok_all = ok_all and ok
        rows.append({
            "degree": n, "tl_dim": full_rank, "catalan": catalan(n),
            "product_span": sub_rank, "dim_new_generators": dim_new,
            "expected": expected[n - 1], "pass": ok,
        })
    return {"rows": rows, "pass": ok_all}
