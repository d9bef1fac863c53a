"""Truncated Fock space over graph paths: the ground-truth operator model.

The basis is every composable edge sequence of length 0..K (length 0 =
vertices), a trie in length order: each path is its first edge prepended
to a parent path one letter shorter (`PathBasis.first`, `.parent`).  No
matrix is formed.  A letter is an index map read off those arrays:
create(e) sends each parent to its child whose first edge is e,
annihilate(e) sends that child back with weight ||e||^2 =
sqrt(mu(s(e))/mu(t(e))), and c(e) is create(e) and annihilate(e-opposite)
together.  An operator is a word program: rows of letter codes with one
coefficient each.  A grade-n loop e_1..e_n w f_n-opp..f_1-opp is the row

    create(e_1) ... create(e_n) c(w) ann(f_n) ... ann(f_1),

and products of such operators realize the graded products exactly on the
truncation interior, which is what pins every sign and weight convention in
the loop algebra.

One walk (`_walk`) takes the rows right to left over sparse (key, path,
value) entries, grouped by letter, and sums equal (key, path) entries
exactly (np.unique, np.bincount), pruning no small value, so no residual is
hidden.  The oracle starts it at one vacuum entry per loop: after d of L
letters a component that can still return sits on a path of length
<= min(d, L - d), so depth L // 2 suffices and longer paths are dropped as
it goes.  Every residual starts it at the interior identity columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import EVEN, ODD
from .elements import Element, LoopAlgebra, _expand, _frame, loop_label
from .traces import _phi_words, _sigma_table

BASIS_CAP = 10 ** 6
CREATE, ANNIHILATE, C = 0, 1, 2     # letter code: kind * (oriented edges) + edge


def _check_cap(alg: LoopAlgebra, depth: int) -> None:
    """MemoryError if more than BASIS_CAP paths have length <= depth,
    counted length by length (sum_m 1^T A^m 1) without building them."""
    count, total = np.ones(alg.g.n_vertices), alg.g.n_vertices
    for _ in range(depth):
        count = np.bincount(alg._src, count[alg._tgt], len(count))
        total += count.sum()
        if total > BASIS_CAP:
            raise MemoryError("path basis exceeds cap")


class PathBasis:
    """All composable paths of length <= K as a trie in length order.

    Path i is the edge `first[i]` prepended to path `parent[i]`, one letter
    shorter; vertex v is path v (its vacuum), with first and parent -1.
    `offsets[n]` is where the paths of length n start, and `norm_sq[i]` is
    the product of ||e||^2 over the edges of path i.  Each length is one
    `_expand` of the previous one's start vertices over the in-edges, so its
    paths come in parent order and each parent's children in edge-id order.
    """

    def __init__(self, alg: LoopAlgebra, depth: int):
        _check_cap(alg, depth)
        self.depth = depth
        n_v = alg.g.n_vertices
        edge_norm_sq = 1.0 / np.array(alg.pf.sigmas)
        start = np.arange(n_v)
        first, parent = [np.full(n_v, -1)], [np.full(n_v, -1)]
        norm_sq, offsets = [np.ones(n_v)], [0, n_v]
        for _ in range(depth):
            r, e = _expand(alg._in, start)
            first.append(e)
            parent.append(offsets[-2] + r)
            norm_sq.append(norm_sq[-1][r] * edge_norm_sq[e])
            start = alg._src[e]
            offsets.append(offsets[-1] + len(e))
        self.offsets = offsets
        self.first, self.parent = np.concatenate(first), np.concatenate(parent)
        self.norm_sq = np.concatenate(norm_sq)

    def __len__(self):
        return self.offsets[-1]

    def interior_indices(self, max_len: int) -> range:
        """The paths of length <= max_len: a prefix of the length order."""
        return range(self.offsets[min(max(max_len + 1, 0), self.depth + 1)])


class IndexMap(NamedTuple):
    """One letter: part (src, dst, w) sends path src[i] to dst[i] times w;
    children come in parent order, so src increases."""
    parts: tuple

    @property
    def nnz(self) -> int:
        return sum(len(src) for src, _, _ in self.parts)


class Program(NamedTuple):
    """sum_r coeff[r] times the letters codes[r], acting right to left."""
    codes: np.ndarray
    coeff: np.ndarray

    def __matmul__(self, other: Program) -> Program:
        """The operator product: one row per pair of rows, letters joined."""
        r, s = np.divmod(np.arange(len(self.coeff) * len(other.coeff)),
                         max(len(other.coeff), 1))
        return Program(np.hstack([self.codes[r], other.codes[s]]),
                       self.coeff[r] * other.coeff[s])


class FockSpace:
    """Letters as index maps over a PathBasis, cached per letter code, and
    operators as word programs that one walk applies."""

    def __init__(self, alg: LoopAlgebra, depth: int):
        self.alg = alg
        self.basis = PathBasis(alg, depth)
        self._n = len(alg._src)
        self._maps: dict[int, IndexMap] = {}

    def _code(self, kind: int, edges) -> np.ndarray:
        return kind * self._n + np.asarray(edges, dtype=np.intp)

    def create(self, e: int) -> IndexMap:
        return self._map(CREATE * self._n + e)

    def annihilate(self, e: int) -> IndexMap:
        return self._map(ANNIHILATE * self._n + e)

    def c(self, e: int) -> IndexMap:
        return self._map(C * self._n + e)

    def _map(self, code: int) -> IndexMap:
        """Letter `code`, cached: each parent to its child whose first edge
        is e (create), that child back to its parent times ||e||^2
        (annihilate), or create(e) and annihilate(e-opp) together (c)."""
        if code not in self._maps:
            kind, e = divmod(code, self._n)
            if kind == C:
                parts = self.create(e).parts + self.annihilate(e ^ 1).parts
            else:
                kids = np.flatnonzero(self.basis.first == e)
                par = self.basis.parent[kids]
                parts = ((par, kids, 1.0) if kind == CREATE else
                         (kids, par, self.alg.pf.norm_sq(e)),)
            self._maps[code] = IndexMap(parts)
        return self._maps[code]

    def c_word(self, edges) -> Program:
        return self.c_loop(edges, 0)

    def c_loop(self, edges, grade: int) -> Program:
        """Operator of one loop's edge row at frame depth `grade`."""
        return self._rows(np.reshape(edges, (1, -1)), grade, np.ones(1))

    def c_element(self, x: Element, grade: int) -> Program:
        return self._rows(x.words, grade, x.coeff)

    def _rows(self, words: np.ndarray, grade: int, coeff: np.ndarray) -> Program:
        n = words.shape[1]
        if n < 2 * grade:
            raise ValueError("loop shorter than twice the grade")
        kind = np.full(n, C)
        kind[:grade], kind[n - grade:] = CREATE, ANNIHILATE
        # stored suffix is (F_n-opp, ..., F_1-opp); the annihilator block reads
        # ann(F_n) ... ann(F_1) left to right, so flip each edge in place
        edges = np.array(words, dtype=np.intp)
        edges[:, n - grade:] ^= 1
        return Program(kind * self._n + edges, coeff)

    def _pairs(self, kind: int, edges) -> Program:
        """sum over e in `edges` of sigma(e) letter(e) letter(e-opp)."""
        es = np.array(edges, dtype=np.intp)
        return Program(self._code(kind, np.stack([es, es ^ 1], axis=1)),
                       np.array(self.alg.pf.sigmas)[es])

    def cup_operator(self) -> Program:
        return self._pairs(C, self.alg.g.positive_edges())

    def nested_cup_operator(self) -> Program:
        """Sum over loops e f f-opp e-opp from even vertices with weight
        sqrt(mu(t(f))/mu(s(e))); equal to sigma(e) sigma(f) by composability,
        which is asserted."""
        alg = self.alg
        r, e = _expand(alg._out, np.array(alg.g.vertices_of_parity(EVEN)))
        s, f = _expand(alg._out, alg._tgt[e])
        e, w = e[s], (alg._mu[alg._tgt[f]] / alg._mu[alg._src[e[s]]]) ** 0.5
        if np.any(abs(w - alg._sigma[1][e] * alg._sigma[1][f]) > 1e-12 * np.maximum(1.0, w)):
            raise AssertionError("nested-cup weight conventions disagree")
        return Program(self._code(C, np.stack([e, f, f ^ 1, e ^ 1], axis=1)), w)

    def include_operator(self, X: Program, base_parity: int) -> Program:
        """Fock-side tower inclusion: sum sigma(e) create(e) X ann(e) over
        edges ending at vertices of the given parity."""
        g = self.alg.g
        es = [e for e in g.oriented_edges if g.parity[g.tgt(e)] == base_parity]
        at = np.repeat(es, len(X.coeff))[:, None]
        codes = np.hstack([self._code(CREATE, at), np.tile(X.codes, (len(es), 1)),
                           self._code(ANNIHILATE, at)])
        return Program(codes, np.array(self.alg.pf.sigmas)[at[:, 0]]
                       * np.tile(X.coeff, len(es)))

    def apply(self, X: Program, col, path, value):
        """X on the sparse columns (col, path, value), summed back into
        (col, path, value) in that order: each row of X walks its own copy
        of the entries, and the copies add with the row coefficients."""
        n, rows = len(self.basis), len(X.coeff)
        key = (np.arange(rows)[:, None] * n + col).ravel()
        key, path, value = _walk(self, X.codes, key, np.tile(path, rows),
                                 np.tile(value, rows), n)
        keys, value = _sum_equal(key % n * n + path, value * X.coeff[key // n])
        return keys // n, keys % n, value

    def _powers(self, X: Program, v: int, k: int) -> list:
        """X^j on the vacuum of v for j = 0..k, as (col, path, value)."""
        out = [(np.array([v]), np.array([v]), np.ones(1))]
        for _ in range(k):
            out.append(self.apply(X, *out[-1]))
        return out

    def vacuum_moments(self, X: Program, v: int, k: int) -> list[float]:
        """<v, X^j v> for j = 0..k."""
        return [float(value[path == v].sum())
                for _, path, value in self._powers(X, v, k)]

    def xi_vector(self, k: int, v: int) -> np.ndarray:
        """The k-th tensor power of sum sigma(e) e (x) e-opp at vertex v:
        (sum over e from v of sigma(e) create(e) create(e-opp))^k applied to
        the vacuum of v, as a vector over the basis."""
        if 2 * k > self.basis.depth:
            raise ValueError("depth too small for xi tensor power")
        _, path, value = self._powers(self._pairs(CREATE, self.alg.g.edges_from(v)),
                                     v, k)[-1]
        vec = np.zeros(len(self.basis))
        vec[path] = value
        return vec

    def vector_norm_sq(self, vec: np.ndarray) -> float:
        return float(np.abs(vec) ** 2 @ self.basis.norm_sq)

    def phi_frame_operator(self, X: Program, n: int) -> float:
        """Scalar tower weight at frame depth n, straight from the operator:

        delta^-n  sum over length-n paths p of
        sqrt(mu(start)/mu(end)) prod ||p_i||^2 <p, X p> / ||p||^2.

        Each ||p_i||^2 is sqrt(mu(s(p_i))/mu(t(p_i))), so the mu ratio
        telescopes to prod ||p_i||^2 as well: X[p, p] has weight
        norm_sq[p]^2.  Independent of the loop-level formula; the two are
        compared in the tests to pin the trace normalization.
        """
        b, delta = self.basis, self.alg.pf.delta
        if not 0 <= n <= b.depth:
            raise ValueError(f"frame depth {n} is outside 0..{b.depth}")
        cols = np.arange(b.offsets[n], b.offsets[n + 1])
        col, path, value = self.apply(X, cols, cols, np.ones(len(cols)))
        return float(b.norm_sq[path] ** 2 @ np.where(path == col, value, 0.0)
                     ) / delta ** n


def _sum_equal(key: np.ndarray, value: np.ndarray):
    """Sorted distinct keys and the sum of each one's values, in input order."""
    keys, inv = np.unique(key, return_inverse=True)
    return keys, np.bincount(inv, value, len(keys))


def _walk(space: FockSpace, codes: np.ndarray, key: np.ndarray,
          path: np.ndarray, value: np.ndarray, stride: int = 1,
          prune: bool = False):
    """Row codes[key // stride] applied right to left to each entry
    (key, path, value).  Each step groups the entries by letter, finds their
    paths in the src of the letter's maps by binary search, and sums equal
    (key, path) entries.  With `prune`, entries on paths longer than the
    letters still to come are dropped first: they cannot return to a vertex."""
    n, ends = len(space.basis), space.basis.offsets
    for j in range(codes.shape[1] - 1, -1, -1):
        if prune:
            live = path < ends[min(j + 1, space.basis.depth) + 1]
            key, path, value = key[live], path[live], value[live]
        letters = codes[key // stride, j]
        at, to, got = [key[:0]], [path[:0]], [value[:0]]
        group = sorted(set(codes[:, j].tolist()))
        for code in group:
            rows = (np.flatnonzero(letters == code) if len(group) > 1
                    else np.arange(len(key)))
            kind, e = divmod(code, space._n)
            for src, dst, w in (space.create, space.annihilate, space.c)[kind](e).parts:
                i = np.minimum(np.searchsorted(src, path[rows]), len(src) - 1)
                hit = np.flatnonzero(src[i] == path[rows]) if len(src) else i[:0]
                at.append(rows[hit])
                to.append(dst[i[hit]])
                got.append(value[rows[hit]] * w)
        keys, value = _sum_equal(key[np.concatenate(at)] * n + np.concatenate(to),
                                 np.concatenate(got))
        key, path = keys // n, keys % n
    return key, path, value


# -- reports ------------------------------------------------------------


def oracle_check_trace(alg: LoopAlgebra, max_len: int = 6, sigma=None) -> dict:
    """Worst |vacuum(c(w)) - pairing(w)| over all loops of length <= max_len.

    Per (level, shading), `_vacuum_values` walks the `loop_words` rows on a
    space of depth max_len // 2 with create/annihilate alone, and the
    pairing side is one `_phi_words` call.  The walk's rows are loops of
    length <= max_len, so past BASIS_CAP such paths it does not start.

    `sigma` overrides the pairing-side edge weights only; injecting a wrong
    weight there is the harness-sanity fault test (the identity itself holds
    for any positive vertex weights, so corrupting both sides is invisible).
    """
    _check_cap(alg, max_len)
    space = FockSpace(alg, max_len // 2)
    sig = _sigma_table(alg, sigma)
    groups = [alg.loop_words(level, shading)
              for level in range(max_len // 2 + 1) for shading in (EVEN, ODD)]
    dev = np.concatenate([np.abs(_vacuum_values(space, b, w) - _phi_words(w, sig))
                          for b, w in groups])
    worst, label, i = float(dev.max()), None, int(dev.argmax())
    for base, words in groups:          # the worst row, if any, is row i
        if worst > 0.0 and 0 <= i < len(base):
            label = loop_label(alg.g, base[i], words[i].tolist())
        i -= len(base)
    return {
        "loops_checked": len(dev),
        "max_deviation": worst,
        "worst_loop": label,
        "pass": worst <= 1e-9,
    }


def _vacuum_values(space: FockSpace, base: np.ndarray,
                   words: np.ndarray) -> np.ndarray:
    """<base[i], c(words[i]) base[i]> of every row: the pruned walk from one
    vacuum entry per row, in chunks of at most BASIS_CAP entries (a row
    holds at most one per path).  Exact when the space is at least half as
    deep as the words are long."""
    step = max(1, BASIS_CAP // len(space.basis))
    codes = space._code(C, words)
    got = np.zeros(len(base))
    for lo in range(0, len(base), step):
        at = base[lo:lo + step]
        key, path, value = _walk(space, codes[lo:lo + step], np.arange(len(at)),
                                 at, np.ones(len(at)), prune=True)
        home = path == at[key]
        got[lo + key[home]] = value[home]
    return got


def _interior(space: FockSpace, X: Program, Y: Program, word_len: int):
    """X - Y on the interior columns, as (col, path, value): the columns
    are the paths that a word of `word_len` letters cannot push past the
    truncation.  A ValueError if there are none, since a residual over no
    column checks nothing."""
    depth, n = space.basis.depth, len(space.basis)
    cols = np.arange(len(space.basis.interior_indices(depth - word_len)))
    if not len(cols):
        raise ValueError(f"a Fock space of depth {depth} has no interior "
                         f"column for a word of {word_len} letters")
    x, y = (space.apply(Z, cols, cols, np.ones(len(cols))) for Z in (X, Y))
    keys, value = _sum_equal(np.concatenate([x[0], y[0]]) * n
                             + np.concatenate([x[1], y[1]]),
                             np.concatenate([x[2], -y[2]]))
    return keys // n, keys % n, value


def homomorphism_residual(alg: LoopAlgebra, t: int, a: Element, b: Element,
                          space: FockSpace) -> float:
    """Max entry of c_t(a) c_t(b) - c_t(a wedge_t b) on interior columns."""
    diff = _interior(space, space.c_element(a, t) @ space.c_element(b, t),
                     space.c_element(alg.wedge(t, a, b), t), 2 * (a.level + b.level))[2]
    return float(np.abs(diff).max(initial=0.0))


def commutator_diagnostics(alg: LoopAlgebra, depth: int = 8) -> dict:
    """Tensor-power norms, the one-cup / nested-cup commutator report, and
    the commutation of pure frame words with included short loops."""
    space = FockSpace(alg, depth)
    pf = alg.pf
    report: dict = {"depth": depth, "xi": [], "delta": pf.delta}
    for k in range(1, min(3, depth // 2) + 1):
        for v in alg.g.vertices_of_parity(EVEN):
            vec = space.xi_vector(k, v)
            got = space.vector_norm_sq(vec)
            report["xi"].append({
                "k": k, "vertex": alg.g.vertex_names[v],
                "norm_sq": got, "expected": pf.delta ** k,
                "abs_err": abs(got - pf.delta ** k),
            })
    cup = space.cup_operator()
    cupcup = space.nested_cup_operator()
    for key, x, y in (("commutator_interior_fro", cup @ cupcup, cupcup @ cup),
                      ("cup_minus_nested_fro", cup, cupcup)):
        report[key] = float(np.sqrt(np.sum(_interior(space, x, y, 6)[2] ** 2)))
    report["pk_commutation_max"] = pk_commutation_residual(alg, space)
    return report


def pk_commutation_residual(alg: LoopAlgebra, space: FockSpace,
                            k: int = 2) -> float:
    """Max interior entry of [c_k(u), i_k(c(w))] over pure frame words u of
    level k and short even loops w.  The relative-commutant elements of the
    tower commute with every k-fold included grade-0 operator.

    The commutator is a word of 4k + 2 letters, so it is read on `space`
    if that is at least 4k + 2 deep and on a new space of that depth if not.

    It sees a missing inclusion (the identity in its place reads 1 on a3
    and s4) but no fault in the inclusion's weights, at any depth: any
    inclusion of frame shape, sum_e w(e) create(e) X ann(e), commutes with
    the frame words, and [z, cX] = c[z, X].  Weights dropped, summed over
    both parities or doubled read at most 3.6e-15 on a3, s4 and a5 at
    depths 10, 12 and 14.  The weights are pinned elsewhere: the tests
    check that the inclusion preserves `phi_frame_operator`.
    """
    if space.basis.depth < 4 * k + 2:
        space = FockSpace(alg, 4 * k + 2)
    words = alg.loop_words(k, EVEN if k % 2 == 0 else ODD)[1]
    frame_words = words[_frame(words, k, np.ones(len(alg._src))) != 0][:8]
    worst = 0.0
    for w in alg.loop_words(1, EVEN)[1]:
        included = space.c_word(w)
        parity = EVEN
        for _ in range(k):
            included = space.include_operator(included, parity)
            parity = -parity
        for u in frame_words:
            z = space.c_loop(u, k)
            d = _interior(space, z @ included, included @ z,
                          len(u) + len(w) + 2 * k)[2]
            worst = max(worst, float(np.abs(d).max(initial=0.0)))
    return worst
