"""Span recorder for the traced pass, and the layer metrics derived from it.

The recorder wraps, at run time, the public functions and methods of every
``graphloops`` module, including names rebound by ``from .x import y`` (for
example ``cli.trace_k`` and ``randmat.normals``).  A layer is the module that
defines the wrapped function.  Each call records one span
``(id, parent, layer, name, start, end)`` in memory; hooks record counts
(wedge pairs, operator nonzeros, Gaussian values drawn) at the same
boundaries.  Everything is written out once, when the pass ends.

This module uses only the standard library, because the worker imports it
before the timed ``import graphloops``.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "graphloops"

# Per-letter accessors run once for every letter of every word: 10^6 calls
# in one algebra pass, mostly from the private phi recursion.  A span on
# each would cost more than the work it measures, so they stay unwrapped
# and their time is charged to the calling layer.
UNWRAPPED = frozenset({
    "graphs.BipartiteGraph.src", "graphs.BipartiteGraph.tgt",
    "graphs.BipartiteGraph.opp", "graphs.BipartiteGraph.edges_from",
    "graphs.BipartiteGraph.edges_into", "graphs.BipartiteGraph.vertex",
    "graphs.BipartiteGraph.vertices_of_parity",
    "graphs.BipartiteGraph.oriented_name",
    "graphs.BipartiteGraph.oriented_edge_by_name",
    "graphs.BipartiteGraph.positive_edges",
    "graphs.BipartiteGraph.negative_edges",
    "graphs.PFData.sigma", "graphs.PFData.norm_sq",
})

# Private names wrapped all the same: the sweep evaluates every smaller grid
# size through _SubModel, so its matvec chains belong in the chain metrics.
WRAPPED_PRIVATE = frozenset({"_SubModel"})

OP_LAYER = "cli"
OP_MODULE = f"{PACKAGE}.{OP_LAYER}"   # its own functions are the op boundary

FOCK_BUILD = ("fock.PathBasis.__init__", "fock.FockSpace.create",
              "fock.FockSpace.annihilate", "fock.FockSpace.c")
FOCK_WORD = ("fock.FockSpace.c_word", "fock.FockSpace.c_loop",
             "fock.FockSpace.c_element")
CHAIN = ("randmat.SampledModel.apply_block", "randmat._SubModel.apply_block")


# -- hooks: counts recorded at the wrapped boundary ------------------------

def _hook_wedge(rec, args, kwargs, result):
    a, b = args[2], args[3]
    rec.add("elements.wedge.pairs", len(a.terms) * len(b.terms))
    rec.add("elements.wedge.terms_out", len(result.terms))


def _hook_algebra(rec, args, kwargs, result):
    rec.algebras.append(args[0])


def _hook_tangle(rec, args, kwargs, result):
    rec.add("tangles.loops_out", len(result.terms))


def _hook_basis(rec, args, kwargs, result):
    rec.add("fock.basis_paths", len(args[0]))


def _hook_operator(rec, args, kwargs, result):
    # cached operators come back as the same object; count each once
    if id(result) not in rec.seen:
        rec.seen[id(result)] = result
        rec.add("fock.op_nnz", result.nnz)


def _hook_sample(rec, args, kwargs, result):
    rec.add("randmat.samples", 1)


def _hook_apply_block(rec, args, kwargs, result):
    w = args[2]
    rows, cols = result.shape[0], w.shape[0]
    probes = w.shape[1] if w.ndim > 1 else 1
    rec.add("randmat.matvecs", probes)
    rec.add("randmat.chain_flops", 8 * rows * cols * probes)
    rec.add("randmat.chain_bytes",
            w.itemsize * (rows * cols + (rows + cols) * probes))


def _hook_estimates(rec, args, kwargs, result):
    for est in result:
        rec.stderr_rel.append(est.stderr / abs(est.target))


def _hook_sweep(rec, args, kwargs, result):
    for rows in result.values():
        for row in rows:
            rec.stderr_rel.append(row["stderr"] / abs(row["target"]))


def _hook_normals(rec, args, kwargs, result):
    rec.add("_normals.values", result.size)
    rec.add("_normals.bytes", result.nbytes)


HOOKS = {
    "elements.LoopAlgebra.wedge": _hook_wedge,
    "elements.LoopAlgebra.__init__": _hook_algebra,
    "tangles.eval_tangle": _hook_tangle,
    "fock.PathBasis.__init__": _hook_basis,
    "fock.FockSpace.create": _hook_operator,
    "fock.FockSpace.annihilate": _hook_operator,
    "fock.FockSpace.c": _hook_operator,
    "randmat.SampledModel.__init__": _hook_sample,
    "randmat.SampledModel.apply_block": _hook_apply_block,
    "randmat._SubModel.apply_block": _hook_apply_block,
    "randmat.estimate_traces": _hook_estimates,
    "randmat.convergence_sweep": _hook_sweep,
    "_normals.normals": _hook_normals,
}


class Recorder:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stderr_rel: list[float] = []
        self.hook_errors: dict[str, str] = {}
        self.wrapped: list[str] = []
        self.layers: set[str] = set()
        self.algebras: list = []          # LoopAlgebra instances of the op
        self.seen: dict[int, object] = {}  # operators already counted
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def wrap(self, fn, layer: str, name: str):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        hook = HOOKS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, start, end))
            if hook is not None:
                try:
                    hook(rec, args, kwargs, result)
                except Exception as exc:  # a changed signature loses a count, not the pass
                    rec.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        self.wrapped.append(name)
        self.layers.add(layer)
        return wrapper

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, such as one whole op."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, layer, name, start, end))

    def end_op(self) -> None:
        """Fold per-op state (phi memo sizes) into the counts."""
        for alg in self.algebras:
            memo = getattr(alg, "_phi_memo", None)
            if memo is not None:
                self.add("traces.phi_memo_entries", len(memo))
        self.algebras.clear()
        self.seen.clear()

    def install(self) -> None:
        """Wrap every public function and method of the imported package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        done: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in WRAPPED_PRIVATE:
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ != OP_MODULE:
                        self._wrap_class(obj)
                    continue
                home = getattr(obj, "__module__", None)
                if not callable(obj) or home not in modules or home == OP_MODULE:
                    continue
                layer = _short(home)
                name = f"{layer}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(obj) not in done:
                    done[id(obj)] = self.wrap(obj, layer, name)
                setattr(mod, attr, done[id(obj)])

    def _wrap_class(self, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            fn = val.__func__ if isinstance(val, staticmethod) else val
            if not isinstance(fn, types.FunctionType):
                continue
            layer = _short(cls.__module__)
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            wrapped = self.wrap(fn, layer, name)
            setattr(cls, attr, staticmethod(wrapped)
                    if isinstance(val, staticmethod) else wrapped)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "stderr_rel": self.stderr_rel,
            "hook_errors": self.hook_errors,
            "wrapped": sorted(set(self.wrapped)),
            "layers": sorted(self.layers),
        }


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


# -- span arithmetic -------------------------------------------------------

def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus what its children cover."""
    children = defaultdict(list)
    for sid, parent, _layer, _name, start, end in spans:
        children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, layer, _name, start, end in spans:
        out[layer] += (end - start) - covered(children.get(sid, ()), start, end)
    return dict(out)


def inclusive_time(spans, names) -> float:
    """Total duration of spans named in `names` that have no ancestor in `names`."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, parent, _layer, name, start, end in spans:
        if name not in names:
            continue
        up = parent
        while up and by_id[up][3] not in names:
            up = by_id[up][1]
        if not up:
            total += end - start
    return total


def call_counts(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Calls per layer and per wrapped name (the benchmark's own op spans excluded)."""
    per_layer: dict[str, int] = defaultdict(int)
    per_name: dict[str, int] = defaultdict(int)
    for _sid, _parent, layer, name, _start, _end in spans:
        if name.startswith("op."):
            continue
        per_layer[layer] += 1
        per_name[name] += 1
    return per_layer, per_name


# -- python -X importtime ---------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def parse_importtime(text: str) -> list[tuple[str, int, float, float]]:
    """(module, depth, self_s, cumulative_s) per line of -X importtime output."""
    out = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out.append((m.group(4), len(m.group(3)) // 2,
                        int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6))
    return out


def import_metrics(text: str) -> dict[str, float]:
    """Cumulative import time of the set-up imports and of scipy.sparse.

    scipy.sparse counts wherever the pass first imported it, and is 0 when
    the pass never did.
    """
    rows = parse_importtime(text)
    total = sum(cum for name, depth, _s, cum in rows
                if depth == 0 and name in (PACKAGE, OP_MODULE))
    sparse = next((cum for name, _d, _s, cum in rows if name == "scipy.sparse"), 0.0)
    return {"setup.import_s": total, "setup.import.scipy_sparse_s": sparse}


# -- layer metrics of one traced pass ----------------------------------------

def metric_layer(layer: str) -> str:
    """Metric names start with a letter: `_normals` reports as `normals`."""
    return layer.lstrip("_")


def layer_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Layers and wrapped names absent from the program give absent metrics.
    """
    spans = [tuple(s) for s in doc["spans"]]
    counts = doc["counts"]
    layers = set(doc["layers"]) | {OP_LAYER}
    wrapped = set(doc["wrapped"])
    selfs = self_times(spans)
    per_layer, per_name = call_counts(spans)
    out: dict[str, tuple[float, str]] = {}

    for layer in sorted(layers):
        key = metric_layer(layer)
        out[f"{key}.self_s"] = (selfs.get(layer, 0.0), "s")
        if layer != OP_LAYER:
            out[f"{key}.calls"] = (per_layer.get(layer, 0), "count")

    def have(*names):
        return all(n in wrapped for n in names)

    if have("graphs.perron_frobenius"):
        out["graphs.pf_s"] = (inclusive_time(spans, ["graphs.perron_frobenius"]), "s")
    if have("elements.LoopAlgebra.wedge"):
        pairs = counts.get("elements.wedge.pairs", 0)
        terms = counts.get("elements.wedge.terms_out", 0)
        out["elements.wedge_s"] = (inclusive_time(spans, ["elements.LoopAlgebra.wedge"]), "s")
        out["elements.wedge.calls"] = (per_name.get("elements.LoopAlgebra.wedge", 0), "count")
        out["elements.wedge.pairs"] = (pairs, "count")
        out["elements.wedge.terms_out"] = (terms, "count")
        out["elements.wedge.match_ratio"] = (terms / pairs if pairs else 0.0, "ratio")
    if have("elements.LoopAlgebra.__init__"):
        out["traces.phi_memo_entries"] = (counts.get("traces.phi_memo_entries", 0), "count")
    if have("tangles.eval_tangle"):
        out["tangles.loops_out"] = (counts.get("tangles.loops_out", 0), "count")
    if have(*FOCK_BUILD):
        build = inclusive_time(spans, FOCK_BUILD)
        out["fock.basis_paths"] = (counts.get("fock.basis_paths", 0), "count")
        out["fock.build_s"] = (build, "s")
        out["fock.op_nnz"] = (counts.get("fock.op_nnz", 0), "count")
        if have(*FOCK_WORD):
            word = inclusive_time(spans, FOCK_WORD + FOCK_BUILD) - build
            out["fock.word_s"] = (word, "s")
    if have("randmat.SampledModel.__init__"):
        out["randmat.samples"] = (counts.get("randmat.samples", 0), "count")
    if have("randmat.SampledModel.apply_block"):
        out["randmat.chain_s"] = (inclusive_time(spans, CHAIN), "s")
        out["randmat.matvecs"] = (counts.get("randmat.matvecs", 0), "count")
        out["randmat.chain_flops"] = (counts.get("randmat.chain_flops", 0), "flop")
        out["randmat.chain_bytes"] = (counts.get("randmat.chain_bytes", 0), "B")
    if have("randmat.estimate_traces", "randmat.convergence_sweep"):
        rel = doc["stderr_rel"]
        out["randmat.stderr_rel"] = (max(rel) if rel else 0.0, "ratio")
    if have("_normals.normals"):
        out["normals.values"] = (counts.get("_normals.values", 0), "count")
        out["normals.bytes"] = (counts.get("_normals.bytes", 0), "B")
    return out


def dump(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_json(), fh)
