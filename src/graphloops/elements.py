"""Sparse loop sums and the graded products, involution, rotation and tower
maps of the planar algebra of a bipartite graph.

Representation conventions (fixed once here, validated against the Fock
operator model in tests):

* A Loop stores its edges in *tower* coordinates: the stored sequence is the
  loop as fed to the operator representation, i.e. for an element used at
  grade t the first t edges and the (reversed, opposite) last t edges form
  the ladder frame and the rest is the middle word.  The planar-coordinate
  loop is the same sequence with the basepoint shifted forward by t edges;
  `shift_base` converts.
* Every product, trace and tower map is built from two moves on a loop,
  each coded once on `LoopAlgebra`:
  - `frame_weight(edges, k, power)` closes a frame of k strings: it is 0
    unless the last k edges mirror the first k, else prod_j sigma(e_j)^power
    over the first k edges (the sigma powers are tabled in the README;
    `traces.trace_k` applies the same rule to a whole word array);
  - `_turn(x, steps, curved)` moves every basepoint forward by `steps`
    edges, with weight mu(old base)/mu(new base) when curved.
* wedge(t, a, b) is nonzero on a loop pair iff the last t edges of a, read
  backwards with orientations flipped (`mirror`), equal the first t edges
  of b.  Each matched edge b_j contributes 1/sigma(b_j), the squared Fock
  length of b_j.  At t = 0 the loops must share their base vertex and the
  product is concatenation.
* The dagger involution mirrors the stored sequence (the same rule at
  every grade in these coordinates).
* One-degree rotation is the curved turn by two edges: it sends
  u_1 u_2 ... u_{2m} to u_3 ... u_{2m} u_1 u_2 with factor
  mu(base)/mu(t(u_2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .graphs import BipartiteGraph, EVEN, ODD, PFData, loops_at
from .ncpairings import noncrossing_pairings

PRUNE_TOL = 1e-14


class Loop(NamedTuple):
    """Closed composable edge sequence with a marked basepoint."""
    base: int
    edges: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.edges) // 2


@dataclass(frozen=True)
class Element:
    """Finite scalar-weighted sum of loops at a fixed level and shading."""

    level: int
    shading: int                      # EVEN (+) or ODD (-) base parity
    terms: dict[Loop, float] = field(default_factory=dict)

    def __post_init__(self):
        for lp in self.terms:
            if len(lp.edges) != 2 * self.level:
                raise ValueError("loop length does not match element level")

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        if (self.level, self.shading) != (other.level, other.shading):
            raise ValueError("can only add elements of equal level and shading")
        terms = dict(self.terms)
        for lp, c in other.terms.items():
            terms[lp] = terms.get(lp, 0.0) + c
        return Element(self.level, self.shading, _prune(terms))

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1.0)

    def scale(self, c) -> "Element":
        return Element(self.level, self.shading,
                       _prune({lp: c * v for lp, v in self.terms.items()}))

    def __rmul__(self, c):
        return self.scale(c)

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm_inf() <= tol


def _prune(terms: dict[Loop, float]) -> dict[Loop, float]:
    return {lp: c for lp, c in terms.items() if abs(c) > PRUNE_TOL}


def loop_from_tokens(g: BipartiteGraph, text: str, base: str | int | None = None) -> Loop:
    """Parse `e1 e2' e2 e1'` style loop tokens (apostrophe = opposite)."""
    tokens = text.split()
    edges = tuple(g.oriented_edge_by_name(t) for t in tokens)
    if edges:
        b = g.src(edges[0])
    elif base is None:
        raise ValueError("a level-0 loop needs an explicit base vertex")
    else:
        b = base if isinstance(base, int) else g.vertex(base)
    for i, e in enumerate(edges):
        nxt = edges[(i + 1) % len(edges)] if edges else None
        if nxt is not None and g.tgt(e) != g.src(nxt):
            raise ValueError(f"edges {g.oriented_name(e)} and "
                             f"{g.oriented_name(nxt)} do not compose")
    return Loop(b, edges)


def loop_tokens(g: BipartiteGraph, lp: Loop) -> str:
    return " ".join(g.oriented_name(e) for e in lp.edges)


def loop_label(g: BipartiteGraph, lp: Loop) -> str:
    """The loop's tokens, or its base vertex's name for a level-0 loop."""
    return loop_tokens(g, lp) or g.vertex_names[lp.base]


class LoopAlgebra:
    """Operations of the graded loop algebra over a fixed (graph, mu) pair."""

    def __init__(self, g: BipartiteGraph, pf: PFData):
        if pf.graph is not g:
            raise ValueError("PF data belongs to a different graph")
        self.g = g
        self.pf = pf

    # -- element constructors -------------------------------------------

    def element(self, terms: dict[Loop, float] | Iterable[tuple[Loop, float]],
                level: int | None = None, shading: int | None = None) -> Element:
        terms = dict(terms)
        if terms:
            some = next(iter(terms))
            level = some.level if level is None else level
            shading = self.g.parity[some.base] if shading is None else shading
        if level is None or shading is None:
            raise ValueError("level and shading required for a zero element")
        for lp in terms:
            self._check_loop(lp)
            if self.g.parity[lp.base] != shading:
                raise ValueError("loop base parity does not match shading")
        return Element(level, shading, _prune(terms))

    def zero(self, level: int, shading: int) -> Element:
        return Element(level, shading, {})

    def vertex_element(self, v: int | str) -> Element:
        v = v if isinstance(v, int) else self.g.vertex(v)
        return Element(0, self.g.parity[v], {Loop(v, ()): 1.0})

    def single_loop(self, lp: Loop, coeff: float = 1.0) -> Element:
        self._check_loop(lp)
        return Element(lp.level, self.g.parity[lp.base], {lp: coeff})

    def from_json_dict(self, doc: dict) -> Element:
        try:
            level, shading, rows = doc["level"], doc["shading"], doc["terms"]
            terms = {}
            for row in rows:
                lp = loop_from_tokens(self.g, row["loop"], row.get("base"))
                terms[lp] = terms.get(lp, 0.0) + row["coeff"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError("element JSON needs 'level', 'shading' and "
                             f"'terms' [{{loop, coeff}}]; bad: {exc}") from None
        if shading not in ("+", "-") or not isinstance(level, int):
            raise ValueError("element JSON needs an integer 'level' and a "
                             f"'shading' '+' or '-', not {level!r}, {shading!r}")
        return self.element(terms, level=level,
                            shading=EVEN if shading == "+" else ODD)

    def to_json_dict(self, x: Element) -> dict:
        rows = []
        for lp in sorted(x.terms):
            row = {"loop": loop_tokens(self.g, lp), "coeff": x.terms[lp]}
            if not lp.edges:
                row["base"] = self.g.vertex_names[lp.base]
            rows.append(row)
        return {"level": x.level,
                "shading": "+" if x.shading == EVEN else "-",
                "terms": rows}

    def basis(self, level: int, shading: int) -> list[Loop]:
        out = []
        for v in self.g.vertices_of_parity(shading):
            out.extend(Loop(v, es) for es in loops_at(self.g, v, level))
        return out

    def _check_loop(self, lp: Loop):
        g = self.g
        at = lp.base
        for e in lp.edges:
            if g.src(e) != at:
                raise ValueError("loop edges do not compose")
            at = g.tgt(e)
        if at != lp.base:
            raise ValueError("loop does not close")

    # -- the two loop moves ---------------------------------------------------

    def mirror(self, edges: tuple[int, ...]) -> tuple[int, ...]:
        """The edge sequence read backwards with every orientation flipped."""
        opp = self.g.opp
        return tuple(opp(e) for e in reversed(edges))

    def frame_weight(self, edges: tuple[int, ...], k: int, power: int) -> float:
        """Close a frame of k strings: 0 unless the last k edges mirror the
        first k, else the product of sigma(e)^power over the first k edges."""
        opp, sigma = self.g.opp, self.pf.sigma
        w = 1.0
        for j in range(k):
            if edges[-1 - j] != opp(edges[j]):
                return 0.0
            w *= sigma(edges[j]) ** power
        return w

    def _turn(self, x: Element, steps: int, curved: bool) -> Element:
        """Move every basepoint forward by `steps` edges, with weight
        mu(old base)/mu(new base) when `curved`; odd steps flip the shading."""
        if x.level == 0:
            if steps != 0:
                raise ValueError("cannot turn the basepoint of a level-0 element")
            return x
        s = steps % (2 * x.level)
        g, mu = self.g, self.pf.mu
        out: dict[Loop, float] = {}
        for lp, c in x.terms.items():
            edges = lp.edges[s:] + lp.edges[:s]
            key = Loop(g.src(edges[0]), edges)
            w = c * (mu[lp.base] / mu[key.base]) if curved else c
            out[key] = out.get(key, 0.0) + w
        shading = x.shading if s % 2 == 0 else -x.shading
        return Element(x.level, shading, _prune(out))

    # -- graded product ---------------------------------------------------

    def wedge(self, t: int, a: Element, b: Element) -> Element:
        """Graded product merging the last t edges of a with the first t of b."""
        if t < 0:
            raise ValueError("wedge grade must be >= 0")
        if a.level < t or b.level < t:
            raise ValueError(f"wedge_{t} needs operands of level >= {t}")
        if a.shading != b.shading:
            raise ValueError("shading mismatch in wedge")
        # b's loops keyed by what a's tail must meet: the base and the first
        # t edges (at t = 0 the base alone); each group keeps b's order
        heads: dict = {}
        for lb, cb in b.terms.items():
            heads.setdefault((lb.base, lb.edges[:t]), []).append((lb.edges[t:], cb))
        out: dict[Loop, float] = {}
        for la, ca in a.terms.items():
            stem = la.edges[: len(la.edges) - t]
            tail = la.edges[len(stem):]
            head = self.mirror(tail) if t else ()
            group = heads.get((la.base, head))
            if group is None:
                continue
            w = self.frame_weight(head + tail, t, -1) if t else 1.0
            for rest, cb in group:
                key = Loop(la.base, stem + rest)
                out[key] = out.get(key, 0.0) + ca * cb * w
        return Element(a.level + b.level - t, a.shading, _prune(out))

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
        out = {}
        for lp, c in a.terms.items():
            key = Loop(lp.base, self.mirror(lp.edges))
            out[key] = out.get(key, 0.0) + _conj(c)
        return Element(a.level, a.shading, _prune(out))

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
        g, pf = self.g, self.pf
        out: dict[Loop, float] = {}
        for lp, c in a.terms.items():
            for e in g.edges_into(lp.base):
                key = Loop(g.src(e), (e,) + lp.edges + (g.opp(e),))
                out[key] = out.get(key, 0.0) + c * pf.sigma(e)
        return Element(a.level + 1, -a.shading, _prune(out))

    def expect_step(self, a: Element) -> Element:
        """Conditional expectation peeling the outermost frame layer.

        e w f-opposite maps to 0 unless e = f, else to
        delta^-1 sigma(e)^-3 w = delta^-1 (mu(s(e))/mu(t(e)))^{3/2} w.  The
        3/2 exponent is the one consistent with expect_step(include_step(x))
        = x and with the operator-model trace; see the test-suite.
        """
        if a.level < 1:
            raise ValueError("expect_step needs level >= 1")
        g, delta = self.g, self.pf.delta
        out: dict[Loop, float] = {}
        for lp, c in a.terms.items():
            w = self.frame_weight(lp.edges, 1, -3)
            if w == 0.0:
                continue
            key = Loop(g.tgt(lp.edges[0]), lp.edges[1:-1])
            out[key] = out.get(key, 0.0) + c * (w / delta)
        return Element(a.level - 1, -a.shading, _prune(out))

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
        for a, b in pairs:
            for c, d in pairs:
                if a < c < b < d:
                    raise ValueError("crossing pairing rejected")

        g, pf = self.g, self.pf
        out: dict[Loop, float] = {}

        def walk(pos, at, stack, edges, weight):
            if pos > two_k:                           # closed: back at the base
                key = Loop(at, tuple(edges))
                out[key] = out.get(key, 0.0) + weight
                return
            if partner[pos] > pos:                    # opener: free edge
                for e in g.edges_from(at):
                    walk(pos + 1, g.tgt(e), stack + [e], edges + [e],
                         weight * pf.sigma(e))
            else:                                     # closer: forced opposite
                e = stack[-1]
                walk(pos + 1, g.src(e), stack[:-1], edges + [g.opp(e)], weight)

        for v in self.g.vertices_of_parity(shading):
            walk(1, v, [], [], 1.0)
        return Element(two_k // 2, shading, _prune(out))

    def big_T(self, n: int, shading: int = EVEN) -> Element:
        """Sum of all Catalan(n) non-crossing diagrams at level n."""
        x = self.zero(n, shading)
        for pairing in noncrossing_pairings(2 * n):
            x = x + self.tl_element(pairing, shading)
        return x

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


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c
