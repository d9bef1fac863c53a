"""Truncated Fock space over graph paths: the ground-truth operator model.

The basis consists of all composable edge sequences of length 0..K (length 0
= vertices).  The edge creation operator prepends an edge when composable;
its adjoint strips a matching first edge with weight ||e||^2 =
sqrt(mu(s(e))/mu(t(e))).  c(e) = create(e) + annihilate(e-opposite).  A
grade-n loop e_1..e_n w f_n-opp..f_1-opp acts as

    create(e_1) ... create(e_n) c(w) ann(f_n) ... ann(f_1),

and products of such operators realize the graded products exactly on the
truncation interior, which is what pins every sign and weight convention in
the loop algebra.

A vacuum expectation <v, c(e_1)...c(e_n) v> needs no word operator: the
cached c(e) matrices are applied right to left to the vacuum vector of v,
one sparse matrix-vector product per letter (`apply_word`).

scipy.sparse is imported inside the methods that build operators, so
importing the package does not pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .graphs import EVEN, ODD
from .elements import Element, Loop, LoopAlgebra
from .traces import _phi_word

if TYPE_CHECKING:
    import scipy.sparse as sp

BASIS_CAP = 10 ** 6


class PathBasis:
    """All composable paths of length <= K, deterministically ordered."""

    def __init__(self, alg: LoopAlgebra, depth: int):
        self.alg = alg
        self.depth = depth
        g = alg.g
        paths: list[tuple[int, tuple[int, ...]]] = []
        frontier = [(v, ()) for v in range(g.n_vertices)]
        paths.extend(frontier)
        for _ in range(depth):
            nxt = []
            for start, edges in frontier:
                head = g.src(edges[0]) if edges else start
                for e in g.edges_into(head):
                    nxt.append((g.src(e), (e,) + edges))
            frontier = nxt
            paths.extend(frontier)
            if len(paths) > BASIS_CAP:
                raise MemoryError("path basis exceeds cap")
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}

    def __len__(self):
        return len(self.paths)

    def vacuum_index(self, v: int) -> int:
        return self.index[(v, ())]

    def interior_indices(self, max_len: int) -> list[int]:
        return [i for i, (_, es) in enumerate(self.paths) if len(es) <= max_len]

    def path_norm_sq(self, i: int) -> float:
        pf = self.alg.pf
        _, edges = self.paths[i]
        out = 1.0
        for e in edges:
            out *= pf.norm_sq(e)
        return out


class FockSpace:
    """Sparse operators over a PathBasis; matrices cached per edge."""

    def __init__(self, alg: LoopAlgebra, depth: int):
        self.alg = alg
        self.basis = PathBasis(alg, depth)
        self._create: dict[int, sp.csr_matrix] = {}
        self._annihilate: dict[int, sp.csr_matrix] = {}
        self._c: dict[int, sp.csr_matrix] = {}

    # -- elementary operators ------------------------------------------

    def create(self, e: int) -> sp.csr_matrix:
        import scipy.sparse as sp
        if e not in self._create:
            g, b = self.alg.g, self.basis
            rows, cols, vals = [], [], []
            for i, (start, edges) in enumerate(b.paths):
                if len(edges) >= b.depth:
                    continue
                head = g.src(edges[0]) if edges else start
                if g.tgt(e) != head:
                    continue
                j = b.index[(g.src(e), (e,) + edges)]
                rows.append(j)
                cols.append(i)
                vals.append(1.0)
            n = len(b)
            self._create[e] = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._create[e]

    def annihilate(self, e: int) -> sp.csr_matrix:
        import scipy.sparse as sp
        if e not in self._annihilate:
            g, b, pf = self.alg.g, self.basis, self.alg.pf
            rows, cols, vals = [], [], []
            w = pf.norm_sq(e)
            for i, (start, edges) in enumerate(b.paths):
                if edges and edges[0] == e:
                    j = b.index[(g.tgt(e), edges[1:])]
                    rows.append(j)
                    cols.append(i)
                    vals.append(w)
            n = len(b)
            self._annihilate[e] = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._annihilate[e]

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

    def apply_word(self, edges, vec: np.ndarray) -> np.ndarray:
        """c(e_1) ... c(e_n) vec, applying the letters right to left: one
        sparse matrix-vector product per letter, no word operator formed."""
        for e in reversed(edges):
            vec = self.c(e) @ vec
        return vec

    def c_loop(self, lp: Loop, grade: int) -> sp.csr_matrix:
        """Operator of one loop at frame depth `grade`."""
        import scipy.sparse as sp
        edges = lp.edges
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
        for lp, coeff in x.terms.items():
            out = out + coeff * self.c_loop(lp, grade)
        return out.tocsr()

    # -- distinguished operators -----------------------------------------

    def cup_operator(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        pf, g = self.alg.pf, self.alg.g
        out = sp.csr_matrix((len(self.basis), len(self.basis)))
        for e in g.positive_edges():
            out = out + pf.sigma(e) * (self.c(e) @ self.c(g.opp(e)))
        return out.tocsr()

    def nested_cup_operator(self, check_weights: bool = True) -> sp.csr_matrix:
        """Sum over loops e f f-opp e-opp from even vertices with weight
        sqrt(mu(t(f))/mu(s(e))); equal to sigma(e) sigma(f) by composability,
        asserted when check_weights."""
        import scipy.sparse as sp
        pf, g = self.alg.pf, self.alg.g
        out = sp.csr_matrix((len(self.basis), len(self.basis)))
        for v in g.vertices_of_parity(EVEN):
            for e in g.edges_from(v):
                for f in g.edges_from(g.tgt(e)):
                    w = (pf.mu[g.tgt(f)] / pf.mu[v]) ** 0.5
                    if check_weights:
                        alt = pf.sigma(e) * pf.sigma(f)
                        if abs(w - alt) > 1e-12 * max(1.0, abs(w)):
                            raise AssertionError(
                                "nested-cup weight conventions disagree")
                    word = self.c(e) @ self.c(f) @ self.c(g.opp(f)) @ self.c(g.opp(e))
                    out = out + w * word
        return out.tocsr()

    def xi_vector(self, k: int, v: int) -> np.ndarray:
        """The k-th tensor power of sum sigma(e) e (x) e-opp at vertex v."""
        g, pf, b = self.alg.g, self.alg.pf, self.basis
        vec = np.zeros(len(b))
        if 2 * k > b.depth:
            raise ValueError("depth too small for xi tensor power")

        def rec(edges, weight, at, remaining):
            if remaining == 0:
                vec[b.index[(v, edges)]] += weight
                return
            for e in g.edges_from(at):
                rec(edges + (e, g.opp(e)), weight * pf.sigma(e), at, remaining - 1)

        rec((), 1.0, v, k)
        return vec

    def vector_norm_sq(self, vec: np.ndarray) -> float:
        return float(sum(abs(c) ** 2 * self.basis.path_norm_sq(i)
                         for i, c in enumerate(vec) if c != 0.0))

    # -- states ------------------------------------------------------------

    def vacuum_expectation(self, X: sp.csr_matrix, v: int,
                           word_len: int | None = None) -> float:
        """<v, X v>.  Passing the operator's word length asserts the
        truncation is deep enough for the value to be exact."""
        if word_len is not None and word_len > self.basis.depth:
            raise ValueError(
                f"word of length {word_len} is not exact at depth "
                f"{self.basis.depth}")
        i = self.basis.vacuum_index(v)
        return float(X[i, i])

    def phi_weight(self, X: sp.csr_matrix) -> float:
        return sum(self.vacuum_expectation(X, v)
                   for v in range(self.alg.g.n_vertices))

    def phi1(self, X: sp.csr_matrix) -> float:
        """Tower trace one step up: delta^-1 sum over odd-starting edges f of
        sigma(f)^-2 <f, X f> / ||f||^2."""
        g, pf, b = self.alg.g, self.alg.pf, self.basis
        acc = 0.0
        for f in g.negative_edges():
            i = b.index[(g.src(f), (f,))]
            acc += X[i, i] / pf.sigma(f) ** 2
        return acc / pf.delta

    def phi_frame_operator(self, X: sp.csr_matrix, n: int) -> float:
        """Scalar tower weight at frame depth n, straight from the operator:

        delta^-n  sum over length-n paths p of
        sqrt(mu(start)/mu(end)) prod ||p_i||^2 <p, X p> / ||p||^2.

        Independent of the loop-level formula; the two are compared in the
        tests to pin the trace normalization.
        """
        g, pf, b = self.alg.g, self.alg.pf, self.basis
        acc = 0.0
        for (start, edges), i in b.index.items():
            if len(edges) != n:
                continue
            end = g.tgt(edges[-1]) if edges else start
            w = (pf.mu[start] / pf.mu[end]) ** 0.5
            for e in edges:
                w *= pf.norm_sq(e)
            acc += w * X[i, i]
        return acc / pf.delta ** n

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


def oracle_check_trace(alg: LoopAlgebra, max_len: int = 6,
                       depth: int | None = None, sigma=None) -> dict:
    """Worst |vacuum(c(w)) - pairing(w)| over all loops of length <= max_len.

    Each vacuum expectation is read from the chain c(w) applied to the
    vacuum vector (`FockSpace.apply_word`), which uses only the
    create/annihilate matrices, never the pairing formula.

    `sigma` overrides the pairing-side edge weights only; injecting a wrong
    weight there is the harness-sanity fault test (the identity itself holds
    for any positive vertex weights, so corrupting both sides is invisible).
    """
    depth = max_len if depth is None else depth
    if depth < max_len:
        raise ValueError("depth must cover the longest word")
    space = FockSpace(alg, depth)
    worst, worst_loop = 0.0, None
    count = 0
    for level in range(0, max_len // 2 + 1):
        for shading in (EVEN, ODD):
            for lp in alg.basis(level, shading):
                i = space.basis.vacuum_index(lp.base)
                vacuum = np.zeros(len(space.basis))
                vacuum[i] = 1.0
                got = float(space.apply_word(lp.edges, vacuum)[i])
                want = _phi_word(alg, lp.edges, sigma)
                dev = abs(got - want)
                count += 1
                if dev > worst:
                    worst, worst_loop = dev, lp
    return {
        "loops_checked": count,
        "max_deviation": worst,
        "worst_loop": None if worst_loop is None else lp_repr(alg, worst_loop),
        "pass": worst <= 1e-9,
    }


def lp_repr(alg: LoopAlgebra, lp: Loop) -> str:
    from .elements import loop_tokens
    return loop_tokens(alg.g, lp) or alg.g.vertex_names[lp.base]


def homomorphism_residual(alg: LoopAlgebra, t: int, a: Element, b: Element,
                          space: FockSpace) -> float:
    """Max entry of c_t(a) c_t(b) - c_t(a wedge_t b) on interior columns."""
    word = 2 * (a.level + b.level)
    cols = space.basis.interior_indices(space.basis.depth - word)
    lhs = space.c_element(a, t) @ space.c_element(b, t)
    rhs = space.c_element(alg.wedge(t, a, b), t)
    diff = (lhs - rhs).tocsc()[:, cols]
    return float(abs(diff).max()) if diff.nnz else 0.0


def commutator_diagnostics(alg: LoopAlgebra, depth: int = 8,
                           pk_grade: int = 2) -> dict:
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
    comm = (cup @ cupcup - cupcup @ cup).tocsc()
    cols = space.basis.interior_indices(depth - 6)
    sub = comm[:, cols]
    report["commutator_interior_fro"] = float(
        np.sqrt(abs(sub).power(2).sum())) if sub.nnz else 0.0
    diff = (cup - cupcup).tocsc()[:, cols]
    report["cup_minus_nested_fro"] = float(
        np.sqrt(abs(diff).power(2).sum())) if diff.nnz else 0.0
    report["pk_commutation_max"] = pk_commutation_residual(
        alg, space, pk_grade)
    return report


def pk_commutation_residual(alg: LoopAlgebra, space: FockSpace,
                            k: int = 2) -> float:
    """Max interior entry of [c_k(u), i_k(c(w))] over pure frame words u of
    level k and short even loops w.  The relative-commutant elements of the
    tower commute with every k-fold included grade-0 operator."""
    g = alg.g
    shading = EVEN if k % 2 == 0 else ODD
    frame_words = [lp for lp in alg.basis(k, shading)
                   if all(lp.edges[j] == g.opp(lp.edges[-1 - j])
                          for j in range(k))]
    short_loops = alg.basis(1, EVEN)
    worst = 0.0
    for w in short_loops:
        included = space.c_word(w.edges)
        parity = EVEN
        for _ in range(k):
            included = space.include_operator(included, parity)
            parity = -parity
        for u in frame_words[:8]:
            z = space.c_loop(u, k)
            word = len(u.edges) + len(w.edges) + 2 * k
            cols = space.basis.interior_indices(space.basis.depth - word)
            d = (z @ included - included @ z).tocsc()[:, cols]
            worst = max(worst, float(abs(d).max()) if d.nnz else 0.0)
    return worst
