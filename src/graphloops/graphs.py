"""Finite bipartite graphs with Perron-Frobenius data.

Vertices carry a parity (+1 even / -1 odd).  Base edges always run from an
even vertex to an odd vertex; every base edge also exists with the opposite
orientation.  Oriented edges are integers: base edge ``i`` gives the
positively oriented edge ``2*i`` and its opposite ``2*i + 1``, so
``opp(e) == e ^ 1``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

EVEN = +1
ODD = -1

_PARITY_NAMES = {"+": EVEN, "-": ODD, "+1": EVEN, "-1": ODD}


class GraphError(ValueError):
    """Raised for malformed graph descriptions."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Connected finite bipartite graph with named vertices and base edges."""

    vertex_names: tuple[str, ...]
    parity: tuple[int, ...]                 # +1 / -1 per vertex
    edge_names: tuple[str, ...]             # base edge names
    edge_source: tuple[int, ...]            # even endpoint of each base edge
    edge_target: tuple[int, ...]            # odd endpoint of each base edge
    _vertex_index: dict[str, int] = field(repr=False, default_factory=dict)
    # per oriented edge: source and target; per vertex: edges out and in
    _src: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _tgt: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _out: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                              compare=False)
    _in: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        src, tgt = [], []
        for u, v in zip(self.edge_source, self.edge_target):
            src += (u, v)
            tgt += (v, u)
        out = [[] for _ in self.vertex_names]
        into = [[] for _ in self.vertex_names]
        for e, (u, v) in enumerate(zip(src, tgt)):
            out[u].append(e)
            into[v].append(e)
        object.__setattr__(self, "_src", tuple(src))
        object.__setattr__(self, "_tgt", tuple(tgt))
        object.__setattr__(self, "_out", tuple(map(tuple, out)))
        object.__setattr__(self, "_in", tuple(map(tuple, into)))

    # -- construction ------------------------------------------------

    @staticmethod
    def build(vertices, edges) -> "BipartiteGraph":
        """Build and validate a graph.

        `vertices`: iterable of (name, parity) with parity in {"+", "-"}.
        `edges`: iterable of (name, from_name, to_name), written positively
        oriented (even -> odd).
        """
        names, pars = [], []
        seen = set()
        for name, par in vertices:
            if name in seen:
                raise GraphError(f"duplicate vertex name {name!r}")
            seen.add(name)
            names.append(name)
            pars.append(_PARITY_NAMES.get(par, par))
            if pars[-1] not in (EVEN, ODD):
                raise GraphError(f"bad parity {par!r} for vertex {name!r}")
        vindex = {n: i for i, n in enumerate(names)}

        enames, esrc, etgt = [], [], []
        eseen = set()
        for name, u, v in edges:
            if name in eseen or name in vindex:
                raise GraphError(f"duplicate edge name {name!r}")
            eseen.add(name)
            try:
                ui, vi = vindex[u], vindex[v]
            except KeyError as exc:
                raise GraphError(f"edge {name!r} uses unknown vertex {exc}") from None
            if pars[ui] != EVEN or pars[vi] != ODD:
                raise GraphError(
                    f"edge {name!r} must run from an even (+) to an odd (-) vertex"
                )
            enames.append(name)
            esrc.append(ui)
            etgt.append(vi)

        g = BipartiteGraph(tuple(names), tuple(pars), tuple(enames),
                           tuple(esrc), tuple(etgt), vindex)
        if not g._connected():
            raise GraphError("graph is not connected")
        return g

    def _connected(self) -> bool:
        n = len(self.vertex_names)
        if n == 0:
            return False
        adj = [[] for _ in range(n)]
        for u, v in zip(self.edge_source, self.edge_target):
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    # -- vertices ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    def vertex(self, name: str) -> int:
        try:
            return self._vertex_index[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def vertices_of_parity(self, parity: int) -> list[int]:
        return [v for v in range(self.n_vertices) if self.parity[v] == parity]

    # -- oriented edges -------------------------------------------------
    # oriented edge id: 2*base for the +1 orientation, 2*base+1 for opposite

    @property
    def n_base_edges(self) -> int:
        return len(self.edge_names)

    @property
    def oriented_edges(self) -> range:
        return range(2 * self.n_base_edges)

    def positive_edges(self) -> list[int]:
        return [2 * i for i in range(self.n_base_edges)]

    @staticmethod
    def opp(e: int) -> int:
        return e ^ 1

    def src(self, e: int) -> int:
        return self._src[e]

    def tgt(self, e: int) -> int:
        return self._tgt[e]

    def edges_from(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def edges_into(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def oriented_name(self, e: int) -> str:
        i, rev = divmod(e, 2)
        return self.edge_names[i] + ("'" if rev else "")

    def oriented_edge_by_name(self, token: str) -> int:
        rev = token.endswith("'")
        base = token[:-1] if rev else token
        try:
            i = self.edge_names.index(base)
        except ValueError:
            raise GraphError(f"unknown edge {token!r}") from None
        return 2 * i + (1 if rev else 0)

    # -- adjacency -------------------------------------------------------

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices))
        for u, v in zip(self.edge_source, self.edge_target):
            a[u, v] += 1.0
            a[v, u] += 1.0
        return a

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"name": n, "parity": "+" if p == EVEN else "-"}
                for n, p in zip(self.vertex_names, self.parity)
            ],
            "edges": [
                {"name": n, "from": self.vertex_names[u], "to": self.vertex_names[v]}
                for n, u, v in zip(self.edge_names, self.edge_source, self.edge_target)
            ],
        }


def _graph_document(spec):
    """A graph document given as a dict, a builtin graph's name, inline JSON
    or a file path.  A builtin name wins over a file of that name; text that
    is none of these reports `builtin_graph`'s error for the name."""
    if not isinstance(spec, str):
        return spec
    try:
        return builtin_graph(spec).to_json_dict()
    except GraphError:
        if spec.lstrip().startswith("{"):
            return json.loads(spec)
        if not os.path.isfile(spec):
            raise
    with open(spec, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_graph(spec) -> BipartiteGraph:
    """Load a graph from a dict, builtin name, JSON string or file path.

    The graph alone: the document's optional `mu` block is PF data, which
    `load_pf` reads from the same document.
    """
    doc = _graph_document(spec)
    try:
        vertices = [(v["name"], v["parity"]) for v in doc["vertices"]]
        edges = [(e["name"], e["from"], e["to"]) for e in doc["edges"]]
        return BipartiteGraph.build(vertices, edges)
    except (KeyError, TypeError) as exc:
        raise GraphError("graph JSON needs 'vertices' [{name, parity}] and "
                         f"'edges' [{{name, from, to}}]; bad: {exc}") from None


def load_pf(spec, tol: float = 1e-9) -> "PFData":
    """PF data of a graph given as a dict, builtin name, JSON string or path.

    An optional `mu` block is the eigenvector, checked by `pf_from_mu` to
    max(tol, 1e-9); without one, `perron_frobenius` solves to min(tol,
    1e-12).  A malformed block raises GraphError.
    """
    doc = _graph_document(spec)
    g = load_graph(doc)
    if "mu" in doc:
        return pf_from_mu(g, doc["mu"], max(tol, 1e-9))
    return perron_frobenius(g, min(tol, 1e-12))


@dataclass(frozen=True)
class PFData:
    """Perron-Frobenius eigenvalue and eigenvector of the adjacency matrix.

    ``mu`` is normalized so its minimum is 1; only ratios of mu at adjacent
    vertices enter any formula downstream.
    """

    graph: BipartiteGraph
    delta: float
    mu: tuple[float, ...]
    tol: float
    # sigma per oriented edge, sqrt(mu(target)/mu(source))
    sigmas: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, mu = self.graph, self.mu
        object.__setattr__(self, "sigmas", tuple(
            (mu[t] / mu[s]) ** 0.5 for s, t in zip(g._src, g._tgt)))

    def sigma(self, e: int) -> float:
        """Edge weight sqrt(mu(target)/mu(source)) of an oriented edge."""
        return self.sigmas[e]

    def norm_sq(self, e: int) -> float:
        """Squared Fock length of an edge vector, the inverse of sigma."""
        return 1.0 / self.sigma(e)

    def residual(self) -> float:
        return _eigen_residual(self.graph.adjacency(), self.delta, np.asarray(self.mu))


def _eigen_residual(a: np.ndarray, delta: float, mu: np.ndarray) -> float:
    """max |A mu - delta mu| / max |mu|, the one residual the solver and
    `PFData.residual` share."""
    return float(np.max(np.abs(a @ mu - delta * mu)) / np.max(np.abs(mu)))


def pf_from_mu(g: BipartiteGraph, mu: dict[str, float],
               tol: float = 1e-9) -> PFData:
    """Build PF data from a user-supplied eigenvector (the optional `mu`
    block of the graph schema).  Each value must be a finite number > 0 (not
    a bool); the eigen-equation is validated to `tol` by `_eigen_residual` and
    the vector renormalized to min 1; delta is recovered as the mean ratio
    (A mu)_v / mu_v."""
    try:
        values = [mu[name] for name in g.vertex_names]
    except (KeyError, TypeError) as exc:
        raise GraphError("mu override needs a number per vertex; "
                         f"bad: {exc}") from None
    for name, x in zip(g.vertex_names, values):
        if (isinstance(x, bool) or not isinstance(x, (int, float))
                or not 0 < x <= sys.float_info.max):
            raise GraphError("mu override needs a finite number > 0 per "
                             f"vertex; bad: {name!r}: {x!r}")
    vec = np.array(values, dtype=float)
    a = g.adjacency()
    delta = float(np.mean((a @ vec) / vec))
    if _eigen_residual(a, delta, vec) > tol:
        raise GraphError("mu override does not satisfy the eigen-equation")
    vec = vec / vec.min()
    return PFData(g, delta, tuple(float(x) for x in vec), tol)


def perron_frobenius(g: BipartiteGraph, tol: float = 1e-12) -> PFData:
    """(delta, mu) with A mu = delta mu, mu > 0, normalized to min mu = 1.

    A symmetric eigensolve of the adjacency; the top eigenvalue of a
    connected graph is simple with a positive eigenvector.  The residual of
    the returned, rescaled mu is checked against `tol` with the same
    definition `PFData.residual` uses; a `tol` below that residual raises
    ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = g.adjacency()
    vals, vecs = np.linalg.eigh(a)
    delta = float(vals[-1])
    v = vecs[:, -1]
    v = v if v.sum() > 0 else -v
    if np.min(v) <= 0:
        raise RuntimeError("Perron-Frobenius eigenvector is not positive")
    mu = v / np.min(v)
    resid = _eigen_residual(a, delta, mu)
    if resid > tol:
        raise ValueError(f"eigen-residual {resid:.3g} exceeds tol {tol:.3g}")
    return PFData(g, delta, tuple(float(x) for x in mu), tol)


# -- built-in graphs used throughout the test-suite and the CLI ---------

def builtin_graph(name: str) -> BipartiteGraph:
    """Small named graphs: a2, a3, star-S4, path-An."""
    key = name.lower()
    if key == "a2":
        return BipartiteGraph.build([("v", "+"), ("w", "-")], [("e", "v", "w")])
    if key == "a3":
        return BipartiteGraph.build(
            [("m", "+"), ("l", "-"), ("r", "-")],
            [("e1", "m", "l"), ("e2", "m", "r")],
        )
    if key in ("s4", "star4", "star-s4"):
        return BipartiteGraph.build(
            [("c", "+")] + [(f"p{i}", "-") for i in range(1, 5)],
            [(f"e{i}", "c", f"p{i}") for i in range(1, 5)],
        )
    if key.startswith("a") and key[1:].isdigit():
        n = int(key[1:])
        if n < 2:
            raise GraphError("path graphs need at least 2 vertices")
        verts = [(f"v{i}", "+" if i % 2 == 0 else "-") for i in range(n)]
        edges = []
        for i in range(n - 1):
            lo, hi = (i, i + 1) if i % 2 == 0 else (i + 1, i)
            edges.append((f"e{i}", f"v{lo}", f"v{hi}"))
        return BipartiteGraph.build(verts, edges)
    raise GraphError(f"unknown builtin graph {name!r}")
