"""A layered tangle DSL and its spin-state evaluator.

Programs are rectangular presentations: a boundary word of oriented edges is
transformed layer by layer.  Boundary words stay closed loops throughout, so
the evaluator state is an element, a weighted sum of loops held as arrays.
Each layer move is coded here and calls no `LoopAlgebra` product, turn or
frame, so the tangle route checks those independently; it shares only the
row bookkeeping (`_merge`, `_expand`, `_join`).  The layer semantics carry
the curvature weights of the graph planar algebra:

* ``cap i``   contracts boundary points i, i+1; a basis loop survives iff
  they carry an edge and its opposite, and gains the factor sigma(edge at i).
* ``cup i``   inserts (e, e-opposite) at position i summed over the edges e
  leaving the region vertex there, each with factor sigma(e).  Its shading
  is read only on the empty boundary: the cup starts from the vertices of
  that shading, or of the output's if it has none.
* ``tensor``  juxtaposes an input at the right end, matching its base vertex
  to the right region of the current word.
* ``rotate``  is the one-degree counterclockwise rotation primitive.

cap then cup at one position multiplies by the loop parameter delta (the
eigenvector identity), and the two zigzags are exact identities; both are
enforced by tests, not assumed.

A program is valid when its inputs have distinct names, it reads each one
exactly once and every layer fits the boundary it meets, ending on the
declared output level.  One function, `_misfit`, decides this; `parse_tangle`
and `eval_tangle` both call it, so a program built in code is held to the
rule a parsed one is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .graphs import EVEN, ODD
from .elements import Element, LoopAlgebra, _expand, _join, _merge

_SHADING = {"+": EVEN, "-": ODD}
_SHADING_NAME = {EVEN: "+", ODD: "-"}


class TangleSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line, self.col = line, col


@dataclass(frozen=True)
class Layer:
    kind: str                 # load | tensor | cap | cup | rotate
    arg: object = None        # slot name or position
    shading: int | None = None  # optional region shading on cup


@dataclass(frozen=True)
class Slot:
    name: str
    level: int
    shading: int


@dataclass(frozen=True)
class TangleProgram:
    name: str
    inputs: tuple[Slot, ...]
    out_level: int
    out_shading: int
    layers: tuple[Layer, ...] = field(default_factory=tuple)

    def source(self) -> str:
        """Render back to DSL text (parse/print round-trips)."""
        sig = ", ".join(f"{s.name}: {s.level}{_SHADING_NAME[s.shading]}"
                        for s in self.inputs)
        head = (f"tangle {self.name}({sig}) -> "
                f"{self.out_level}{_SHADING_NAME[self.out_shading]} {{")
        body = []
        for layer in self.layers:           # kind[ arg][shading];
            arg = "" if layer.arg is None else f" {layer.arg}"
            shading = _SHADING_NAME.get(layer.shading, "")
            body.append(f"  {layer.kind}{arg}{shading};")
        return "\n".join([head] + body + ["}"])


_TOKEN = re.compile(r"(?P<tok>->|[A-Za-z_][A-Za-z_0-9]*|\d+|[(){}:;,>+-])"
                    r"|\s+|#.*|(?P<bad>.)")


def _tokenize(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            if m["bad"]:
                raise TangleSyntaxError(f"bad character {m['bad']!r}", lineno,
                                        m.start() + 1)
            if m["tok"]:
                yield (m["tok"], lineno, m.start() + 1)


class _Cursor:
    def __init__(self, text):
        self.toks = list(_tokenize(text))
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self, expect=None):
        if self.i >= len(self.toks):
            last = self.toks[-1] if self.toks else ("", 1, 1)
            raise TangleSyntaxError("unexpected end of input", last[1], last[2])
        tok, line, col = self.toks[self.i]
        self.i += 1
        if expect is not None and tok != expect:
            raise TangleSyntaxError(f"expected {expect!r}, got {tok!r}", line, col)
        return tok, line, col


def _misfit(prog: TangleProgram) -> tuple[int, str] | None:
    """The first validity rule `prog` breaks, as (place, message); the
    inputs, then the layers, then the end are places 0, 1, 2, ...

    No two inputs may share a name.  Then one walk over the boundary sizes:
    each layer must be of a known kind, `load` and `tensor` must read a
    declared input that no earlier layer read, a cap or cup needs an integer
    position, `load` needs the empty boundary, and a cap, cup or rotate must
    fit the boundary before it.  At the end, a program with no layers, an
    input never read or a last boundary other than the declared output is
    charged to the end.  None when every rule holds.
    """
    for i, s in enumerate(prog.inputs):
        if s.name in [t.name for t in prog.inputs[:i]]:
            return i, f"input {s.name!r} is declared a second time"
    levels = {s.name: s.level for s in prog.inputs}
    unread = dict.fromkeys(levels)
    points = 0
    for place, layer in enumerate(prog.layers, start=len(levels)):
        n, kind, p = place - len(levels) + 1, layer.kind, layer.arg
        what = kind if p is None else f"{kind} {p}"
        if kind not in ("load", "tensor", "cap", "cup", "rotate"):
            return place, f"layer {n} ({what}) is of no known kind"
        if kind in ("load", "tensor") and p not in levels:
            return place, (f"layer {n} ({what}) reads an undeclared input "
                           f"(unknown input {p!r})")
        if kind in ("load", "tensor") and p not in unread:
            return place, f"layer {n} ({what}) reads input {p!r} a second time"
        if kind in ("cap", "cup") and (not isinstance(p, (int, np.integer))
                                       or isinstance(p, bool)):
            return place, f"layer {n} ({kind}): expected a {kind} position"
        if (kind == "cup" and not 1 <= p <= points + 1
                or kind == "cap" and not 1 <= p <= points - 1
                or kind == "rotate" and points < 2
                or kind == "load" and points):
            return place, (f"layer {n} ({what}) does not fit a boundary of "
                           f"{points} points (out of range)")
        if kind in ("load", "tensor"):
            del unread[p]
            points += 2 * levels[p]
        elif kind != "rotate":
            points += 2 if kind == "cup" else -2
    end = len(levels) + len(prog.layers)
    if not prog.layers:
        return end, "the program has no layers and leaves no boundary"
    if unread:
        return end, f"inputs never read: {list(unread)}"
    if points != 2 * prog.out_level:
        return end, (f"final boundary has {points} points, declared output "
                     f"needs {2 * prog.out_level}")
    return None


def parse_tangle(text: str) -> TangleProgram:
    """Parse a layered tangle program and check it against `_misfit`.

    The parser reads only syntax; a layer's argument is any token before
    its `;`, read as an integer if it is an all-digit cap or cup position.
    A program that breaks a validity rule raises `TangleSyntaxError` with
    the rule's message, placed at the offending input's name or layer's
    argument (the keyword of an argument-free layer) or, for a fault found
    at the end, at the closing brace.
    """
    cur = _Cursor(text)
    cur.next("tangle")
    name, _, _ = cur.next()
    slots = []
    where: list[tuple[int, int]] = []       # token position of each place
    if cur.peek() == "(":
        cur.next("(")
        while cur.peek() != ")":
            slot_name, line, col = cur.next()
            where.append((line, col))
            cur.next(":")
            lvl_tok, line, col = cur.next()
            if not lvl_tok.isdigit():
                raise TangleSyntaxError("expected input level", line, col)
            sh_tok, line, col = cur.next()
            if sh_tok not in _SHADING:
                raise TangleSyntaxError("expected shading + or -", line, col)
            slots.append(Slot(slot_name, int(lvl_tok), _SHADING[sh_tok]))
            if cur.peek() == ",":
                cur.next(",")
        cur.next(")")
    cur.next("->")
    out_lvl_tok, line, col = cur.next()
    if not out_lvl_tok.isdigit():
        raise TangleSyntaxError("expected output level", line, col)
    out_sh_tok, line, col = cur.next()
    if out_sh_tok not in _SHADING:
        raise TangleSyntaxError("expected shading + or -", line, col)
    cur.next("{")

    layers: list[Layer] = []
    while cur.peek() != "}":
        kind, line, col = cur.next()
        arg = shading = None
        if kind in ("load", "tensor", "cap", "cup") and cur.peek() != ";":
            arg, line, col = cur.next()
        if kind in ("cap", "cup") and arg is not None and arg.isdigit():
            arg = int(arg)
        if kind == "cup" and cur.peek() in _SHADING:
            shading = _SHADING[cur.next()[0]]
        layers.append(Layer(kind, arg, shading))
        where.append((line, col))
        cur.next(";")
    where.append(cur.next("}")[1:])

    prog = TangleProgram(name, tuple(slots), int(out_lvl_tok),
                         _SHADING[out_sh_tok], tuple(layers))
    misfit = _misfit(prog)
    if misfit is not None:
        place, message = misfit
        raise TangleSyntaxError(message, *where[place])
    return prog


def eval_tangle(alg: LoopAlgebra, prog: TangleProgram,
                inputs: dict[str, Element]) -> Element:
    """Evaluate a program on elements; multilinear in the inputs.

    The program must pass `_misfit`, the rule `parse_tangle` applies, and
    the inputs must match the declared slots; either fault is a ValueError
    raised before any layer runs, the first with the parser's message.
    The state is an element, None while the boundary is empty; each layer
    is one array move on its rows followed by `_merge`.  Its loops stay
    closed, so a row's right region is its base vertex, and only `rotate`
    moves a base."""
    misfit = _misfit(prog)
    if misfit is not None:
        raise ValueError(misfit[1])
    for slot in prog.inputs:
        x = inputs.get(slot.name)
        if x is None:
            raise ValueError(f"missing input {slot.name!r}")
        if x.level != slot.level or x.shading != slot.shading:
            raise ValueError(f"input {slot.name!r} has level/shading "
                             f"{x.level}{_SHADING_NAME[x.shading]}, declared "
                             f"{slot.level}{_SHADING_NAME[slot.shading]}")

    state: Element | None = None
    for layer in prog.layers:
        p = layer.arg
        if layer.kind in ("load", "tensor"):
            x = inputs[p]
            if state is None:
                state = x
                continue
            ia, ib = _join(state.base, x.base)
            base, coeff = state.base[ia], state.coeff[ia] * x.coeff[ib]
            words = np.concatenate((state.words[ia], x.words[ib]), axis=1)
        elif layer.kind == "cap":
            w = state.words
            keep = np.flatnonzero(w[:, p] == w[:, p - 1] ^ 1)
            base, words = state.base[keep], np.delete(w[keep], (p - 1, p), axis=1)
            coeff = state.coeff[keep] * alg._sigma[1][w[keep, p - 1]]
        elif layer.kind == "cup":
            if state is None:       # empty boundary: level 0 at each vertex
                shading = layer.shading or prog.out_shading
                base, words = alg.loop_words(0, shading)
                state = _merge(0, shading, base, words, np.ones(len(base)))
            w = state.words
            r, e = _expand(alg._out, state.base if p == 1 else alg._tgt[w[:, p - 2]])
            base, coeff = state.base[r], state.coeff[r] * alg._sigma[1][e]
            words = np.column_stack((w[r, :p - 1], e, e ^ 1, w[r, p - 1:]))
        else:                                   # rotate
            words = np.roll(state.words, -2, axis=1)
            base = alg._src[words[:, 0]]
            coeff = state.coeff * (alg._mu[state.base] / alg._mu[base])
        state = _merge(words.shape[1] // 2, state.shading, base, words, coeff)

    if state.shading != prog.out_shading:
        return alg.zero(prog.out_level, prog.out_shading)
    return state


def equivalence_check(alg: LoopAlgebra, prog_a: TangleProgram,
                      prog_b: TangleProgram, trials: int = 8,
                      seed: int = 7, tol: float = 1e-9):
    """Spot-check two programs on random inputs; (ok, worst) report."""
    if [(s.level, s.shading) for s in prog_a.inputs] != \
       [(s.level, s.shading) for s in prog_b.inputs]:
        raise ValueError("programs declare different inputs")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        inputs_a, inputs_b = {}, {}
        for sa, sb in zip(prog_a.inputs, prog_b.inputs):
            x = random_element(alg, sa.level, sa.shading, rng)
            inputs_a[sa.name] = x
            inputs_b[sb.name] = x
        ra = eval_tangle(alg, prog_a, inputs_a)
        rb = eval_tangle(alg, prog_b, inputs_b)
        scale = max(ra.norm_inf(), rb.norm_inf(), 1.0)
        worst = max(worst, (ra - rb).norm_inf() / scale)
    return worst <= tol, worst


def random_element(alg: LoopAlgebra, level: int, shading: int, rng) -> Element:
    """Standard normal coefficients on the loops of `alg.loop_words`."""
    base, words = alg.loop_words(level, shading)
    return _merge(level, shading, base, words, rng.standard_normal(len(base)))


# -- canned program builders used as cross-checking oracles ------------------


def wedge_program(t: int, level_a: int, level_b: int, shading: int) -> TangleProgram:
    """load a; tensor b; then t caps zipping the junction."""
    layers = [Layer("load", "a"), Layer("tensor", "b")]
    for j in range(t):
        layers.append(Layer("cap", 2 * level_a - j))
    return TangleProgram(
        f"wedge{t}", (Slot("a", level_a, shading), Slot("b", level_b, shading)),
        level_a + level_b - t, shading, tuple(layers))


def rotation_program(level: int, shading: int, times: int = 1) -> TangleProgram:
    layers = [Layer("load", "a")] + [Layer("rotate")] * times
    return TangleProgram("rotation", (Slot("a", level, shading),),
                         level, shading, tuple(layers))


def _cap_order(pairing) -> list[int]:
    """Cap positions realizing a pairing, innermost first, on live indices:
    in one pass over the points, each pair is capped at its closing point,
    where its opener sits just after the points still open."""
    partner = {}
    for i, j in pairing:
        partner[i], partner[j] = j, i
    open_points, order = [], []
    for p in sorted(partner):
        if partner[p] > p:
            open_points.append(p)
        elif open_points.pop() != partner[p]:
            raise ValueError("pairing is crossing")
        else:
            order.append(len(open_points) + 1)
    return order


def closure_program(pairing, level: int, shading: int) -> TangleProgram:
    """Close a loaded level-`level` element along one non-crossing pairing."""
    layers = [Layer("load", "a")]
    layers += [Layer("cap", i) for i in _cap_order(pairing)]
    return TangleProgram("closure", (Slot("a", level, shading),), 0, shading,
                         tuple(layers))


def diagram_program(pairing, shading: int) -> TangleProgram:
    """Build the loop sum of one non-crossing diagram from the empty boundary
    with cups, in order of their openers (outermost first).  Every point
    before an opener belongs to a pair opened earlier, so the cup goes in
    at the opener's rank among all the points."""
    points = sorted(p for pair in pairing for p in pair)
    layers = [Layer("cup", points.index(i) + 1, shading)
              for i in sorted(min(p) for p in pairing)]
    return TangleProgram("diagram", (), len(points) // 2, shading, tuple(layers))


def trace0_via_tangles(alg: LoopAlgebra, x: Element) -> np.ndarray:
    """Grade-0 trace as the sum over all pairing closures (oracle path)."""
    from .ncpairings import noncrossing_pairings
    values = np.zeros(alg.g.n_vertices, dtype=x.coeff.dtype)
    for pairing in noncrossing_pairings(2 * x.level):
        res = eval_tangle(alg, closure_program(pairing, x.level, x.shading),
                          {"a": x})
        np.add.at(values, res.base, res.coeff)
    return values
