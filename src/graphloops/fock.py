"""Truncated Fock space over graph paths: the ground-truth operator model.

The basis consists of all composable edge sequences of length 0..K (length 0
= vertices), stored as a trie in length order: each path is its first edge
prepended to a parent path one letter shorter (`PathBasis.first`,
`PathBasis.parent`), one `_expand` over the in-edges per length.  The edge
creation operator prepends an edge when composable, mapping each parent to
its child; its adjoint strips a matching first edge, child to parent, with
weight ||e||^2 = sqrt(mu(s(e))/mu(t(e))).  Both are read off the two
arrays, as are the path weights ||p||^2 and the interior columns (a prefix
of the length order).  c(e) = create(e) + annihilate(e-opposite).  A
grade-n loop e_1..e_n w f_n-opp..f_1-opp acts as

    create(e_1) ... create(e_n) c(w) ann(f_n) ... ann(f_1),

and products of such operators realize the graded products exactly on the
truncation interior, which is what pins every sign and weight convention in
the loop algebra.

A vacuum expectation <v, c(e_1)...c(e_L) v> needs no word operator: the
oracle applies the cached c(e) right to left to a block of vacuum rows, one
per word (`_vacuum_values`).  After d letters, a component that can still
return sits on a path of length <= min(d, L - d), so depth L // 2 suffices.

scipy.sparse is imported inside the methods that build operators, so
importing the package does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .graphs import EVEN, ODD
from .elements import Element, Loop, LoopAlgebra, _expand, _frame, loop_label
from .traces import _phi_words, _sigma_table

if TYPE_CHECKING:
    import scipy.sparse as sp

BASIS_CAP = 10 ** 6


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


class FockSpace:
    """Sparse operators over a PathBasis; matrices cached per edge."""

    def __init__(self, alg: LoopAlgebra, depth: int):
        self.alg = alg
        self.basis = PathBasis(alg, depth)
        self._ladders: dict[tuple[int, bool], sp.csr_matrix] = {}
        self._c: dict[int, sp.csr_matrix] = {}

    # -- elementary operators ------------------------------------------

    def _ladder(self, e: int, up: bool) -> sp.csr_matrix:
        """The paths whose first edge is e against their parents, cached:
        parent to child with weight 1 when `up` (create), child to parent
        with weight ||e||^2 otherwise (annihilate)."""
        import scipy.sparse as sp
        if (e, up) not in self._ladders:
            b = self.basis
            kids = np.flatnonzero(b.first == e)
            ends = (kids, b.parent[kids]) if up else (b.parent[kids], kids)
            w = np.full(len(kids), 1.0 if up else self.alg.pf.norm_sq(e))
            self._ladders[e, up] = sp.csr_matrix((w, ends), shape=(len(b),) * 2)
        return self._ladders[e, up]

    def create(self, e: int) -> sp.csr_matrix:
        return self._ladder(e, True)

    def annihilate(self, e: int) -> sp.csr_matrix:
        return self._ladder(e, False)

    def c(self, e: int) -> sp.csr_matrix:
        if e not in self._c:
            self._c[e] = (self.create(e) + self.annihilate(self.alg.g.opp(e))).tocsr()
        return self._c[e]

    def c_word(self, edges) -> sp.csr_matrix:
        import scipy.sparse as sp
        out = sp.identity(len(self.basis), format="csr")
        for e in edges:
            out = out @ self.c(e)
        return out

    def c_loop(self, edges, grade: int) -> sp.csr_matrix:
        """Operator of one loop's edge row at frame depth `grade`."""
        import scipy.sparse as sp
        if len(edges) < 2 * grade:
            raise ValueError("loop shorter than twice the grade")
        out = sp.identity(len(self.basis), format="csr")
        for e in edges[:grade]:
            out = out @ self.create(e)
        out = out @ self.c_word(edges[grade: len(edges) - grade])
        # stored suffix is (F_n-opp, ..., F_1-opp); the annihilator block reads
        # ann(F_n) ... ann(F_1) left to right, so flip each edge in place
        for e in edges[len(edges) - grade:]:
            out = out @ self.annihilate(self.alg.g.opp(e))
        return out

    def c_element(self, x: Element, grade: int) -> sp.csr_matrix:
        import scipy.sparse as sp
        out = sp.csr_matrix((len(self.basis), len(self.basis)))
        for edges, coeff in zip(x.words.tolist(), x.coeff.tolist()):
            out = out + coeff * self.c_loop(edges, grade)
        return out.tocsr()

    # -- distinguished operators -----------------------------------------

    def cup_operator(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        pf, g = self.alg.pf, self.alg.g
        out = sp.csr_matrix((len(self.basis), len(self.basis)))
        for e in g.positive_edges():
            out = out + pf.sigma(e) * (self.c(e) @ self.c(g.opp(e)))
        return out.tocsr()

    def nested_cup_operator(self) -> sp.csr_matrix:
        """Sum over loops e f f-opp e-opp from even vertices with weight
        sqrt(mu(t(f))/mu(s(e))); equal to sigma(e) sigma(f) by composability,
        which is asserted."""
        import scipy.sparse as sp
        pf, g = self.alg.pf, self.alg.g
        out = sp.csr_matrix((len(self.basis), len(self.basis)))
        for v in g.vertices_of_parity(EVEN):
            for e in g.edges_from(v):
                for f in g.edges_from(g.tgt(e)):
                    w = (pf.mu[g.tgt(f)] / pf.mu[v]) ** 0.5
                    if abs(w - pf.sigma(e) * pf.sigma(f)) > 1e-12 * max(1.0, w):
                        raise AssertionError(
                            "nested-cup weight conventions disagree")
                    word = self.c(e) @ self.c(f) @ self.c(g.opp(f)) @ self.c(g.opp(e))
                    out = out + w * word
        return out.tocsr()

    def xi_vector(self, k: int, v: int) -> np.ndarray:
        """The k-th tensor power of sum sigma(e) e (x) e-opp at vertex v:
        (sum over e from v of sigma(e) create(e) create(e-opp))^k applied to
        the vacuum of v."""
        g, pf, create = self.alg.g, self.alg.pf, self.create
        if 2 * k > self.basis.depth:
            raise ValueError("depth too small for xi tensor power")
        vec = np.zeros(len(self.basis))
        vec[v] = 1.0
        for _ in range(k):
            vec = sum(pf.sigma(e) * (create(e) @ (create(g.opp(e)) @ vec))
                      for e in g.edges_from(v))
        return vec

    def vector_norm_sq(self, vec: np.ndarray) -> float:
        return float(np.abs(vec) ** 2 @ self.basis.norm_sq)

    # -- states ------------------------------------------------------------

    def phi_frame_operator(self, X: sp.csr_matrix, n: int) -> float:
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
        row = slice(b.offsets[n], b.offsets[n + 1])
        return float(b.norm_sq[row] ** 2 @ X.diagonal()[row]) / delta ** n

    def include_operator(self, X: sp.csr_matrix, base_parity: int) -> sp.csr_matrix:
        """Fock-side tower inclusion: sum sigma(e) create(e) X ann(e) over
        edges ending at vertices of the given parity."""
        import scipy.sparse as sp
        g, pf = self.alg.g, self.alg.pf
        out = sp.csr_matrix(X.shape)
        for e in g.oriented_edges:
            if g.parity[g.tgt(e)] == base_parity:
                out = out + pf.sigma(e) * (self.create(e) @ X @ self.annihilate(e))
        return out.tocsr()


# -- reports ------------------------------------------------------------


def oracle_check_trace(alg: LoopAlgebra, max_len: int = 6, sigma=None) -> dict:
    """Worst |vacuum(c(w)) - pairing(w)| over all loops of length <= max_len.

    Per (level, shading), `_vacuum_values` walks the `loop_words` rows on a
    space of depth max_len // 2 with create/annihilate alone, and the
    pairing side is one `_phi_words` call.  The walk holds up to one row per
    path of length <= max_len, so past BASIS_CAP such paths it does not start.

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
            label = loop_label(alg.g, Loop(int(base[i]), tuple(words[i].tolist())))
        i -= len(base)
    return {
        "loops_checked": len(dev),
        "max_deviation": worst,
        "worst_loop": label,
        "pass": worst <= 1e-9,
    }


def _vacuum_values(space: FockSpace, base: np.ndarray,
                   words: np.ndarray) -> np.ndarray:
    """<base[i], c(words[i]) base[i]> of every row, from create/annihilate
    alone: a (rows x paths) block starts at the vacuum rows and takes the
    letters right to left, each edge one sparse product over the rows that
    carry it, in chunks of at most BASIS_CAP block entries.  Exact when the
    space is at least half as deep as the words are long."""
    step = max(1, BASIS_CAP // len(space.basis))
    got = np.empty(len(base))
    for lo in range(0, len(base), step):
        at = base[lo:lo + step]
        rows = np.arange(len(at))
        block = np.zeros((len(at), len(space.basis)))
        block[rows, at] = 1.0
        for letters in words[lo:lo + step].T[::-1]:
            for e in np.unique(letters).tolist():
                r = np.flatnonzero(letters == e)
                block[r] = (space.c(e) @ block[r].T).T
        got[lo:lo + step] = block[rows, at]
    return got


def _interior(space: FockSpace, op: sp.csr_matrix, word_len: int):
    """|op| on the interior columns: the paths that a word of `word_len`
    letters cannot push past the truncation.  A ValueError if there are
    none, since a residual over no column checks nothing."""
    depth = space.basis.depth
    cols = space.basis.interior_indices(depth - word_len)
    if not len(cols):
        raise ValueError(f"a Fock space of depth {depth} has no interior "
                         f"column for a word of {word_len} letters")
    return abs(op.tocsc()[:, cols])


def homomorphism_residual(alg: LoopAlgebra, t: int, a: Element, b: Element,
                          space: FockSpace) -> float:
    """Max entry of c_t(a) c_t(b) - c_t(a wedge_t b) on interior columns."""
    lhs = space.c_element(a, t) @ space.c_element(b, t)
    rhs = space.c_element(alg.wedge(t, a, b), t)
    diff = _interior(space, lhs - rhs, 2 * (a.level + b.level))
    return float(diff.max()) if diff.nnz else 0.0


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
    for key, op in (("commutator_interior_fro", cup @ cupcup - cupcup @ cup),
                    ("cup_minus_nested_fro", cup - cupcup)):
        sub = _interior(space, op, 6)
        report[key] = float(np.sqrt(sub.power(2).sum())) if sub.nnz else 0.0
    report["pk_commutation_max"] = pk_commutation_residual(alg, space)
    return report


def pk_commutation_residual(alg: LoopAlgebra, space: FockSpace,
                            k: int = 2) -> float:
    """Max interior entry of [c_k(u), i_k(c(w))] over pure frame words u of
    level k and short even loops w.  The relative-commutant elements of the
    tower commute with every k-fold included grade-0 operator.

    The commutator is a word of 4k + 2 letters, so it is read on `space`
    if that is at least 4k + 2 deep and on a new space of that depth if not.
    """
    if space.basis.depth < 4 * k + 2:
        space = FockSpace(alg, 4 * k + 2)
    words = alg.loop_words(k, EVEN if k % 2 == 0 else ODD)[1]
    frame_words = words[_frame(words, k, np.ones(len(alg._src))) != 0][:8].tolist()
    worst = 0.0
    for w in alg.loop_words(1, EVEN)[1].tolist():
        included = space.c_word(w)
        parity = EVEN
        for _ in range(k):
            included = space.include_operator(included, parity)
            parity = -parity
        for u in frame_words:
            z = space.c_loop(u, k)
            d = _interior(space, z @ included - included @ z,
                          len(u) + len(w) + 2 * k)
            worst = max(worst, float(d.max()) if d.nnz else 0.0)
    return worst
