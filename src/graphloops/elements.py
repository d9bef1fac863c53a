"""Loop sums and the graded products, involution, rotation and tower maps
of the planar algebra of a bipartite graph.

An element is three arrays: `base` int32[n], `words` int32[n, 2 level]
(oriented edge ids) and `coeff` float or complex [n].  `_merge` builds every
element: equal rows are summed in input order, sums with |c| <= PRUNE_TOL
times the largest input |c| are dropped and rows keep the order of their
first appearance.  That is the order and arithmetic of a running dict sum,
so every coefficient equals the one a dict of loops would hold, bit for bit.
`Element.terms` is a read-only {Loop: coeff} view; `loop_order` and
`loop_label` order and name rows straight from the arrays.

Conventions (fixed once here, validated against the Fock operator model in
tests):

* A loop stores its edges in *tower* coordinates: for an element used at
  grade t the first t edges and the (reversed, opposite) last t edges form
  the ladder frame and the rest is the middle word.  The planar loop is the
  same sequence with the basepoint shifted forward by t edges (`shift_base`).
* Operations are array moves over per-edge tables (source, target, powers
  of sigma) and -1 padded per-vertex edge tables.  `_frame(words, k, table)`
  closes a frame of k strings on every row: 0 unless the last k letters
  mirror the first k, else the product of table[e] over the first k (sigma^-3
  for `expect_step` and `traces.trace_k`, sigma for `traces.usual_trace`).
  `_turn` rolls every word forward by `steps` letters, with weight
  mu(old base)/mu(new base) when curved.
* wedge(t, a, b) pairs the rows where the last t letters of a, reversed and
  flipped, equal the first t letters of b.  Each matched letter b_j
  contributes 1/sigma(b_j), its squared Fock length.  At t = 0 the loops
  must share their base vertex and the product is concatenation.
* The dagger reverses every word and flips each letter (e ^ 1), at every
  grade.  One-degree rotation is the curved turn by two edges: it sends
  u_1 u_2 ... u_{2m} to u_3 ... u_{2m} u_1 u_2 with factor mu(base)/mu(t(u_2)).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graphs import BipartiteGraph, EVEN, ODD, PFData
from .ncpairings import is_noncrossing

PRUNE_TOL = 1e-14
WALK_CAP = 10 ** 6      # walks one `loop_words` call may hold


class Loop(NamedTuple):
    """Closed composable edge sequence with a marked basepoint."""
    base: int
    edges: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.edges) // 2


@dataclass(frozen=True, eq=False)
class Element:
    """Finite scalar-weighted sum of loops at a fixed level and shading:
    row i is the loop (base[i], words[i]) with coefficient coeff[i]."""

    level: int
    shading: int                      # EVEN (+) or ODD (-) base parity
    base: np.ndarray                  # int32[n]
    words: np.ndarray                 # int32[n, 2 * level]
    coeff: np.ndarray                 # float or complex [n]

    @cached_property
    def terms(self) -> Mapping[Loop, float]:
        """The rows as a read-only {Loop: coeff} mapping, in row order."""
        return MappingProxyType(dict(zip(_loops(self.base, self.words),
                                         self.coeff.tolist())))

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        if (self.level, self.shading) != (other.level, other.shading):
            raise ValueError("can only add elements of equal level and shading")
        return _merge(self.level, self.shading,
                      np.concatenate((self.base, other.base)),
                      np.concatenate((self.words, other.words)),
                      np.concatenate((self.coeff, other.coeff)))

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1.0)

    def scale(self, c) -> "Element":
        return _merge(self.level, self.shading, self.base, self.words,
                      c * self.coeff)

    def __rmul__(self, c):
        return self.scale(c)

    def norm_inf(self) -> float:
        return float(np.abs(self.coeff).max(initial=0.0))


def _loops(base: np.ndarray, words: np.ndarray) -> list[Loop]:
    """The rows (base, words) as Loops of Python ints."""
    return list(map(Loop, base.tolist(), map(tuple, words.tolist())))


def _row_keys(base: np.ndarray, words: np.ndarray):
    """The rows (base, words) as one int32 array and a byte key per row."""
    rows = np.empty((len(base), 1 + words.shape[1]), dtype=np.int32)
    rows[:, 0], rows[:, 1:] = base, words
    return rows, rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def _merge(level: int, shading: int, base, words, coeff) -> Element:
    """The element of the rows (base[i], words[i], coeff[i]): equal rows
    summed in input order, |sum| <= PRUNE_TOL max|coeff| dropped, rows in
    order of first appearance."""
    bound = PRUNE_TOL * np.abs(coeff).max(initial=0.0)  # ahead of the big temporaries
    rows, key = _row_keys(base, words)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    group = rank[group]
    total = np.bincount(group, coeff.real, len(order)).astype(coeff.dtype)
    if np.iscomplexobj(coeff):
        total.imag = np.bincount(group, coeff.imag, len(order))
    keep = np.abs(total) > bound
    rows, total = rows[first[order][keep]], total[keep]
    rows.flags.writeable = total.flags.writeable = False     # terms is cached
    return Element(level, shading, rows[:, 0], rows[:, 1:], total)


def _join(key_a: np.ndarray, key_b: np.ndarray):
    """(ia, ib) for every pair with key_a[ia] == key_b[ib], a-outer and
    b-inner in b's order: one `np.unique` inverse and a stable argsort."""
    distinct, group = np.unique(np.concatenate((key_a, key_b)),
                                return_inverse=True)
    ga, gb = group[:len(key_a)], group[len(key_a):]
    by_group = np.argsort(gb, kind="stable")
    count = np.bincount(gb, minlength=len(distinct))
    start = np.cumsum(count) - count
    n_match = count[ga]
    ia = np.repeat(np.arange(len(ga)), n_match)
    offset = np.arange(len(ia)) - np.repeat(np.cumsum(n_match) - n_match, n_match)
    return ia, by_group[start[ga[ia]] + offset]


def _frame(words: np.ndarray, k: int, table: np.ndarray) -> np.ndarray:
    """Close a frame of k strings on every row: 0 where the last k letters
    do not mirror the first k, else the product of table[e] over the first
    k letters, in letter order."""
    w = np.ones(len(words))
    for j in range(k):
        w *= table[words[:, j]]
        w[words[:, words.shape[1] - 1 - j] != words[:, j] ^ 1] = 0.0
    return w


def _expand(table: np.ndarray, at: np.ndarray):
    """(row, edge) for every edge in each row's entry of a -1 padded
    per-vertex edge table, rows in order and edges in id order."""
    cand = table[at]
    r, j = np.nonzero(cand >= 0)
    return r, cand[r, j]


def _padded(lists) -> np.ndarray:
    """Per-vertex edge lists as one table, -1 past the end of each list."""
    width = max(map(len, lists), default=0)
    return np.array([es + (-1,) * (width - len(es)) for es in lists],
                    dtype=np.intp).reshape(len(lists), width)


def loop_from_tokens(g: BipartiteGraph, text: str, base: str | None = None) -> Loop:
    """Parse `e1 e2' e2 e1'` style loop tokens (apostrophe = opposite); a
    level-0 loop needs `base`, a vertex name, and any other loop starts at
    its `base` if one is given."""
    tokens = text.split()
    edges = tuple(g.oriented_edge_by_name(t) for t in tokens)
    if not edges and base is None:
        raise ValueError("a level-0 loop needs an explicit base vertex")
    b = g.src(edges[0]) if edges else g.vertex(base)
    if base is not None and g.vertex(base) != b:
        raise ValueError(f"loop {text!r} starts at {g.vertex_names[b]!r}, "
                         f"not at its base {base!r}")
    for i, e in enumerate(edges):
        nxt = edges[(i + 1) % len(edges)] if edges else None
        if nxt is not None and g.tgt(e) != g.src(nxt):
            raise ValueError(f"edges {g.oriented_name(e)} and "
                             f"{g.oriented_name(nxt)} do not compose")
    return Loop(b, edges)


def loop_tokens(g: BipartiteGraph, lp: Loop) -> str:
    return " ".join(g.oriented_name(e) for e in lp.edges)


def loop_label(g: BipartiteGraph, base: int, edges) -> str:
    """A row's label: its edges' tokens, or its base vertex's name for a
    level-0 loop."""
    return " ".join(map(g.oriented_name, edges)) or g.vertex_names[base]


def loop_order(x: Element) -> np.ndarray:
    """Row indices of x in the order of `sorted(x.terms)`: by base vertex,
    then edge ids letter by letter."""
    return np.lexsort((*x.words.T[::-1], x.base))


class LoopAlgebra:
    """Operations of the graded loop algebra over a fixed (graph, mu) pair."""

    def __init__(self, g: BipartiteGraph, pf: PFData):
        if pf.graph is not g:
            raise ValueError("PF data belongs to a different graph")
        self.g = g
        self.pf = pf
        self._src = np.array(g._src, dtype=np.intp)
        self._tgt = np.array(g._tgt, dtype=np.intp)
        self._mu = np.array(pf.mu)
        self._sigma = {p: np.array([s ** p for s in pf.sigmas])
                       for p in (1, -1, -3)}
        self._out, self._in = _padded(g._out), _padded(g._in)

    # -- element constructors -------------------------------------------

    def element(self, terms: Mapping[Loop, float] | Iterable[tuple[Loop, float]],
                level: int | None = None, shading: int | None = None) -> Element:
        """The sum of (loop, coeff) pairs; a repeated loop's coefficients add."""
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        if items:
            some = items[0][0]
            level = some.level if level is None else level
            shading = self.g.parity[some.base] if shading is None else shading
        if level is None or shading is None:
            raise ValueError("level and shading required for a zero element")
        if any(len(lp.edges) != 2 * level for lp, _ in items):
            raise ValueError("loop length does not match element level")
        base = np.array([lp.base for lp, _ in items], dtype=np.intp)
        words = np.array([lp.edges for lp, _ in items],
                         dtype=np.intp).reshape(len(items), 2 * level)
        coeff = np.array([c for _, c in items])
        coeff = coeff if coeff.dtype.kind == "c" else coeff.astype(float)
        path = np.column_stack((base, self._tgt[words]))
        if np.any(self._src[words] != path[:, :-1]) or np.any(path[:, -1] != base):
            raise ValueError("loop edges do not compose into a closed loop")
        if np.any(np.array(self.g.parity)[base] != shading):
            raise ValueError("loop base parity does not match shading")
        return _merge(level, shading, base, words, coeff)

    def zero(self, level: int, shading: int) -> Element:
        return self.element((), level, shading)

    def vertex_element(self, v: int | str) -> Element:
        v = v if isinstance(v, int) else self.g.vertex(v)
        return self.element({Loop(v, ()): 1.0})

    def single_loop(self, lp: Loop, coeff: float = 1.0) -> Element:
        return self.element({lp: coeff})

    def from_json_dict(self, doc: dict) -> Element:
        try:
            level, shading, rows = doc["level"], doc["shading"], doc["terms"]
            terms = []
            for row in rows:
                base = row.get("base")
                if base is not None and base not in self.g.vertex_names:
                    raise ValueError("element JSON 'base' must name a vertex, "
                                     f"not {base!r}")
                terms.append((loop_from_tokens(self.g, row["loop"], base),
                              row["coeff"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError("element JSON needs 'level', 'shading' and "
                             f"'terms' [{{loop, coeff}}]; bad: {exc}") from None
        if shading not in ("+", "-") or type(level) is not int or level < 0:
            raise ValueError("element JSON needs an integer 'level' >= 0 and "
                             f"a 'shading' '+' or '-', not {level!r}, {shading!r}")
        for _, c in terms:
            if type(c) not in (int, float) or not abs(c) <= sys.float_info.max:
                raise ValueError(f"element JSON 'coeff' must be a finite "
                                 f"number, not {c!r}")
        return self.element(terms, level=level,
                            shading=EVEN if shading == "+" else ODD)

    def to_json_dict(self, x: Element) -> dict:
        base, words, coeff = x.base.tolist(), x.words.tolist(), x.coeff.tolist()
        rows = []
        for i in loop_order(x).tolist():
            row = {"loop": " ".join(map(self.g.oriented_name, words[i])),
                   "coeff": coeff[i]}
            if not words[i]:
                row["base"] = self.g.vertex_names[base[i]]
            rows.append(row)
        return {"level": x.level,
                "shading": "+" if x.shading == EVEN else "-",
                "terms": rows}

    def loop_words(self, level: int, shading: int):
        """(base, words) of every loop of 2 level edges based at a vertex of
        the given shading: the walks from those vertices, one `_expand` over
        the out-edges per letter, that end where they began.  Rows are in
        depth-first order: by base vertex, then edge ids letter by letter.
        A MemoryError comes before any walk is built if more than WALK_CAP
        walks would be held at once, counted letter by letter."""
        if level < 0:
            raise ValueError("level must be >= 0")
        base = at = np.array(self.g.vertices_of_parity(shading), dtype=np.intp)
        count = np.bincount(at, minlength=self.g.n_vertices).astype(float)
        for _ in range(2 * level):
            count = np.bincount(self._tgt, count[self._src], len(count))
            if count.sum() > WALK_CAP:
                raise MemoryError("loop walks exceed cap")
        words = np.empty((len(at), 0), dtype=np.intp)
        for _ in range(2 * level):
            r, e = _expand(self._out, at)
            base, words, at = base[r], np.column_stack((words[r], e)), self._tgt[e]
        closed = at == base
        return base[closed], words[closed]

    def basis(self, level: int, shading: int) -> list[Loop]:
        """The loops of `loop_words`, in its order."""
        return _loops(*self.loop_words(level, shading))

    def _turn(self, x: Element, steps: int, curved: bool) -> Element:
        """Move every basepoint forward by `steps` edges, with weight
        mu(old base)/mu(new base) when `curved`; odd steps flip the shading."""
        if x.level == 0:
            if steps != 0:
                raise ValueError("cannot turn the basepoint of a level-0 element")
            return x
        s = steps % (2 * x.level)
        words = np.roll(x.words, -s, axis=1)
        base = self._src[words[:, 0]]
        coeff = x.coeff * (self._mu[x.base] / self._mu[base]) if curved else x.coeff
        return _merge(x.level, x.shading if s % 2 == 0 else -x.shading,
                      base, words, coeff)

    # -- graded product ---------------------------------------------------

    def wedge(self, t: int, a: Element, b: Element) -> Element:
        """Graded product merging the last t edges of a with the first t of b."""
        if t < 0:
            raise ValueError("wedge grade must be >= 0")
        if a.level < t or b.level < t:
            raise ValueError(f"wedge_{t} needs operands of level >= {t}")
        if a.shading != b.shading:
            raise ValueError("shading mismatch in wedge")
        # a row meets the b rows whose (base, first t letters) equal its own
        # (base, mirrored last t letters); a-outer, b-inner in b's order
        stem = 2 * a.level - t
        tail = a.words[:, stem:]
        head = tail[:, ::-1] ^ 1
        ia, ib = _join(_row_keys(a.base, head)[1],
                       _row_keys(b.base, b.words[:, :t])[1])
        w = _frame(np.concatenate((head, tail), axis=1), t, self._sigma[-1])
        return _merge(a.level + b.level - t, a.shading, a.base[ia],
                      np.concatenate((a.words[ia, :stem], b.words[ib, t:]), axis=1),
                      a.coeff[ia] * b.coeff[ib] * w[ia])

    def usual_mult(self, a: Element, b: Element) -> Element:
        """Stacking-tangle product of equal-level elements in planar
        coordinates: the first k edges of b must mirror the last k of a
        (bottom path of a = top path of b) and the surviving loop is a's
        first half followed by b's second half.  The per-strand weights are
        those of the cap chain realizing the stacking, which is formally the
        same rule as the full-grade wedge."""
        if a.level != b.level:
            raise ValueError("usual multiplication needs equal levels")
        return self.wedge(a.level, a, b)

    def involution(self, a: Element) -> Element:
        """Dagger: mirror each loop, conjugate coefficients."""
        return _merge(a.level, a.shading, a.base, a.words[:, ::-1] ^ 1,
                      a.coeff.conj())

    def rotate(self, a: Element, times: int = 1) -> Element:
        """Counterclockwise one-degree rotation (basepoint forward by 2)."""
        return self._turn(a, 2 * times, curved=True)

    def shift_base(self, a: Element, steps: int) -> Element:
        """Move every basepoint forward by `steps` edges, no weight.

        This is the coordinate change between the grade-t and grade-(t+s)
        views of one underlying planar element (positive steps lower the
        grade view by `steps`).
        """
        return self._turn(a, steps, curved=False)

    # -- tower maps ---------------------------------------------------------

    def include_step(self, a: Element) -> Element:
        """Trace-compatible unital inclusion one step up the tower.

        Each loop w gains every composable frame edge: sum over edges ^e
        ending at the base of w of sigma(^e) * (^e w ^e-opposite).
        """
        r, e = _expand(self._in, a.base)
        return _merge(a.level + 1, -a.shading, self._src[e],
                      np.column_stack((e, a.words[r], e ^ 1)),
                      a.coeff[r] * self._sigma[1][e])

    def expect_step(self, a: Element) -> Element:
        """Conditional expectation peeling the outermost frame layer.

        e w f-opposite maps to 0 unless e = f, else to
        delta^-1 sigma(e)^-3 w = delta^-1 (mu(s(e))/mu(t(e)))^{3/2} w.  The
        3/2 exponent is the one consistent with expect_step(include_step(x))
        = x and with the operator-model trace; see the test-suite.
        """
        if a.level < 1:
            raise ValueError("expect_step needs level >= 1")
        w = _frame(a.words, 1, self._sigma[-3])
        keep = np.flatnonzero(w)
        return _merge(a.level - 1, -a.shading, self._tgt[a.words[keep, 0]],
                      a.words[keep, 1:-1],
                      a.coeff[keep] * (w[keep] / self.pf.delta))

    def unit(self, k: int, shading: int) -> Element:
        """Unit of the grade-k algebra at level k: the identity diagram, i.e.
        the sum over length-k paths p of prod sigma(p_i) times the loop p
        followed by its mirror."""
        return self.tl_element(tuple((j, 2 * k + 1 - j) for j in range(1, k + 1)),
                               shading)

    # -- Temperley-Lieb elements ---------------------------------------------

    def tl_element(self, pairing, shading: int = EVEN) -> Element:
        """Loop sum of one non-crossing diagram, in planar coordinates.

        For pairing pi of {1..2k}: sum over loops whose paired positions carry
        an edge and its opposite, weighted by sigma of the earlier edge of
        each pair.  The empty diagram is the level-0 unit, sum_v Loop(v, ()).
        """
        pairs = [tuple(sorted(p)) for p in pairing]
        two_k = 2 * len(pairs)
        partner = {}
        for i, j in pairs:
            partner[i], partner[j] = j, i
        if sorted(partner) != list(range(1, two_k + 1)):
            raise ValueError("pairing must partition 1..2k")
        if not is_noncrossing(pairs):
            raise ValueError("crossing pairing rejected")
        # every walk at once, position by position: an opener takes each
        # edge out of the current vertex, a closer its opener's opposite
        base = at = np.array(self.g.vertices_of_parity(shading), dtype=np.intp)
        words, weight = np.empty((len(at), 0), dtype=np.intp), np.ones(len(at))
        for pos in range(1, two_k + 1):
            if partner[pos] > pos:
                r, e = _expand(self._out, at)
                base, words, weight = base[r], words[r], weight[r] * self._sigma[1][e]
            else:
                e = words[:, partner[pos] - 1] ^ 1
            at = self._tgt[e]
            words = np.column_stack((words, e))
        return _merge(two_k // 2, shading, base, words, weight)

    def cup(self, shading: int = EVEN) -> Element:
        """The one-cup element: sum over edges e of sigma(e) (e e-opposite)."""
        return self.tl_element(((1, 2),), shading)

    def tl_generator(self, i: int, k: int, shading: int = EVEN) -> Element:
        """Unnormalized Temperley-Lieb generator E_i at level k (1 <= i < k):
        strands i, i+1 capped and cupped, all others through.  Planar
        coordinates; multiply with `usual_mult`."""
        if not 1 <= i < k:
            raise ValueError("need 1 <= i < k")
        pairs = [(i, i + 1), (2 * k - i, 2 * k - i + 1)]
        pairs += [(j, 2 * k + 1 - j) for j in range(1, k + 1)
                  if j not in (i, i + 1)]
        return self.tl_element(tuple(pairs), shading)

    def jones_projection(self, k: int, shading: int = EVEN,
                         tower: bool = False) -> Element:
        """Normalized Jones projection at level k (k >= 2).

        Planar coordinates by default (idempotent under `usual_mult`); with
        tower=True the grade-k coordinates for use inside wedge products.
        """
        if k < 2:
            raise ValueError("jones projection needs k >= 2")
        x = self.tl_generator(k - 1, k, shading).scale(1.0 / self.pf.delta)
        return self.to_grade(x) if tower else x

    def to_grade(self, x: Element) -> Element:
        """Carry a level-k planar element to its grade-k tower coordinates.

        The curved half turn: per basis loop, move the basepoint k edges
        with weight mu(base)/mu(midpoint vertex).  On a 2k-edge loop this is
        its own inverse, and for even k it equals `rotate(x, k // 2)`.  It
        is the unique *-compatible identification of the level-k usual
        algebra with the grade-k slice: it sends the usual unit to the wedge
        unit and reverses the product order
        (wedge(to_grade a, to_grade b) = to_grade(b a)).
        """
        return self._turn(x, x.level, curved=True)
