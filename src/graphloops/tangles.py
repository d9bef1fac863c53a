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
        for layer in self.layers:
            if layer.kind in ("load", "tensor"):
                body.append(f"  {layer.kind} {layer.arg};")
            elif layer.kind == "cap":
                body.append(f"  cap {layer.arg};")
            elif layer.kind == "cup":
                sh = _SHADING_NAME[layer.shading] if layer.shading else ""
                body.append(f"  cup {layer.arg}{sh};")
            else:
                body.append("  rotate;")
        return "\n".join([head] + body + ["}"])


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[(){}:;,>+-]|->")


def _tokenize(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        bare = line.split("#", 1)[0]
        pos = 0
        while pos < len(bare):
            if bare[pos].isspace():
                pos += 1
                continue
            if bare.startswith("->", pos):
                yield ("->", lineno, pos + 1)
                pos += 2
                continue
            m = _TOKEN.match(bare, pos)
            if not m:
                raise TangleSyntaxError(f"bad character {bare[pos]!r}", lineno, pos + 1)
            yield (m.group(0), lineno, m.start() + 1)
            pos = m.end()


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

    def here(self):
        if self.i < len(self.toks):
            return self.toks[self.i][1], self.toks[self.i][2]
        return (self.toks[-1][1], self.toks[-1][2]) if self.toks else (1, 1)


def parse_tangle(text: str) -> TangleProgram:
    """Parse and statically validate a layered tangle program.

    Boundary-point counts are simulated at parse time, so out-of-range cap
    and cup positions, arity mismatches and a wrong declared output level are
    all rejected here.
    """
    cur = _Cursor(text)
    cur.next("tangle")
    name, _, _ = cur.next()
    slots = []
    if cur.peek() == "(":
        cur.next("(")
        while cur.peek() != ")":
            slot_name, _, _ = cur.next()
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

    by_name = {s.name: s for s in slots}
    layers: list[Layer] = []
    count = 0
    loaded: set[str] = set()
    while cur.peek() != "}":
        kind, line, col = cur.next()
        if kind in ("load", "tensor"):
            slot_name, sline, scol = cur.next()
            slot = by_name.get(slot_name)
            if slot is None:
                raise TangleSyntaxError(f"unknown input {slot_name!r}", sline, scol)
            if slot_name in loaded:
                raise TangleSyntaxError(f"input {slot_name!r} used twice", sline, scol)
            if kind == "load" and count != 0:
                raise TangleSyntaxError("load needs an empty boundary", line, col)
            loaded.add(slot_name)
            count += 2 * slot.level
            layers.append(Layer(kind, slot_name))
        elif kind == "cap":
            pos_tok, pline, pcol = cur.next()
            pos = int(pos_tok) if pos_tok.isdigit() else None
            if pos is None or not 1 <= pos <= count - 1:
                raise TangleSyntaxError(
                    f"cap position out of range (boundary has {count} points)",
                    pline, pcol)
            count -= 2
            layers.append(Layer("cap", pos))
        elif kind == "cup":
            pos_tok, pline, pcol = cur.next()
            pos = int(pos_tok) if pos_tok.isdigit() else None
            if pos is None or not 1 <= pos <= count + 1:
                raise TangleSyntaxError(
                    f"cup position out of range (boundary has {count} points)",
                    pline, pcol)
            shading = None
            if cur.peek() in _SHADING:
                sh_tok, _, _ = cur.next()
                shading = _SHADING[sh_tok]
            count += 2
            layers.append(Layer("cup", pos, shading))
        elif kind == "rotate":
            if count < 2:
                raise TangleSyntaxError("rotate needs a boundary", line, col)
            layers.append(Layer("rotate"))
        else:
            raise TangleSyntaxError(f"unknown layer {kind!r}", line, col)
        cur.next(";")
    cur.next("}")

    missing = set(by_name) - loaded
    if missing:
        raise TangleSyntaxError(f"inputs never loaded: {sorted(missing)}", *cur.here())
    if count != 2 * int(out_lvl_tok):
        raise TangleSyntaxError(
            f"final boundary has {count} points, declared output needs "
            f"{2 * int(out_lvl_tok)}", *cur.here())
    return TangleProgram(name, tuple(slots), int(out_lvl_tok),
                         _SHADING[out_sh_tok], tuple(layers))


def eval_tangle(alg: LoopAlgebra, prog: TangleProgram,
                inputs: dict[str, Element]) -> Element:
    """Evaluate a program on elements; multilinear in the inputs.

    The state is an element, None while the boundary is empty; each layer
    is one array move on its rows followed by `_merge`.  Its loops stay
    closed, so a row's right region is its base vertex, and only `rotate`
    moves a base.  A layer that `parse_tangle` would reject (unknown kind,
    undeclared input, no fit to the boundary) is a ValueError naming it."""
    for slot in prog.inputs:
        x = inputs.get(slot.name)
        if x is None:
            raise ValueError(f"missing input {slot.name!r}")
        if x.level != slot.level or x.shading != slot.shading:
            raise ValueError(f"input {slot.name!r} has level/shading "
                             f"{x.level}{_SHADING_NAME[x.shading]}, declared "
                             f"{slot.level}{_SHADING_NAME[slot.shading]}")

    declared = {slot.name for slot in prog.inputs}
    state: Element | None = None
    for n, layer in enumerate(prog.layers, start=1):
        points = 0 if state is None else 2 * state.level
        p = layer.arg
        what = layer.kind if p is None else f"{layer.kind} {p}"
        if layer.kind not in ("load", "tensor", "cap", "cup", "rotate"):
            raise ValueError(f"layer {n} ({what}) is of no known kind")
        if layer.kind in ("load", "tensor") and p not in declared:
            raise ValueError(f"layer {n} ({what}) reads an undeclared input")
        if (layer.kind == "cup" and not 1 <= p <= points + 1
                or layer.kind == "cap" and not 1 <= p <= points - 1
                or layer.kind == "rotate" and points < 2
                or layer.kind == "load" and points):
            raise ValueError(f"layer {n} ({what}) does not fit a boundary "
                             f"of {points} points")
        if layer.kind in ("load", "tensor"):
            x = inputs[layer.arg]
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

    if state is None:
        raise ValueError("program produced no boundary")
    if state.level != prog.out_level:
        raise ValueError("evaluation level mismatch")
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
    """Cap positions realizing a pairing, innermost first, on live indices."""
    live = sorted(p for pair in pairing for p in pair)
    remaining = [tuple(sorted(p)) for p in pairing]
    order = []
    while remaining:
        for pair in remaining:
            i, j = pair
            a, b = live.index(i), live.index(j)
            if b == a + 1:
                order.append(a + 1)
                live.remove(i)
                live.remove(j)
                remaining.remove(pair)
                break
        else:
            raise ValueError("pairing is crossing")
    return order


def closure_program(pairing, level: int, shading: int) -> TangleProgram:
    """Close a loaded level-`level` element along one non-crossing pairing."""
    layers = [Layer("load", "a")]
    layers += [Layer("cap", i) for i in _cap_order(pairing)]
    return TangleProgram("closure", (Slot("a", level, shading),), 0, shading,
                         tuple(layers))


def diagram_program(pairing, shading: int) -> TangleProgram:
    """Build the loop sum of one non-crossing diagram from the empty boundary
    with cups, outermost pairs first."""
    pairs = sorted((tuple(sorted(p)) for p in pairing),
                   key=lambda p: (p[0], -p[1]))
    layers = [Layer("cup", pos, shading) for pos in _cup_order(pairs)]
    k = len(pairs)
    return TangleProgram("diagram", (), k, shading, tuple(layers))


def _cup_order(pairs) -> list[int]:
    placed: list[int] = []          # original positions already on the boundary
    order = []
    for i, j in pairs:              # outermost-first by construction
        pos = sum(1 for p in placed if p < i) + 1
        order.append(pos)
        placed.extend((i, j))
        placed.sort()
    return order


def trace0_via_tangles(alg: LoopAlgebra, x: Element) -> np.ndarray:
    """Grade-0 trace as the sum over all pairing closures (oracle path)."""
    from .ncpairings import noncrossing_pairings
    values = np.zeros(alg.g.n_vertices, dtype=x.coeff.dtype)
    for pairing in noncrossing_pairings(2 * x.level):
        res = eval_tangle(alg, closure_program(pairing, x.level, x.shading),
                          {"a": x})
        np.add.at(values, res.base, res.coeff)
    return values
