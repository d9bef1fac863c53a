import dataclasses
import json
import math

import numpy as np
import pytest

from graphloops import (BipartiteGraph, GraphError, LoopAlgebra, Loop,
                        builtin_graph, load_graph, perron_frobenius, EVEN, ODD)


def test_load_a2_smallest():
    g = load_graph(json.dumps({
        "vertices": [{"name": "v", "parity": "+"}, {"name": "w", "parity": "-"}],
        "edges": [{"name": "e", "from": "v", "to": "w"}],
    }))
    assert g.n_vertices == 2
    assert g.n_base_edges == 1
    assert g.oriented_name(1) == "e'"


def test_load_a3():
    g = builtin_graph("a3")
    assert g.n_vertices == 3
    assert g.n_base_edges == 2
    assert g.parity[g.vertex("m")] == EVEN
    assert g.parity[g.vertex("l")] == ODD


def test_parity_violation_rejected():
    with pytest.raises(GraphError):
        BipartiteGraph.build(
            [("a", "+"), ("b", "+")], [("e", "a", "b")])


def test_duplicate_names_rejected():
    with pytest.raises(GraphError):
        BipartiteGraph.build(
            [("a", "+"), ("a", "-")], [("e", "a", "a")])
    with pytest.raises(GraphError):
        BipartiteGraph.build(
            [("a", "+"), ("b", "-")],
            [("e", "a", "b"), ("e", "a", "b")])


def test_disconnected_rejected():
    with pytest.raises(GraphError):
        BipartiteGraph.build(
            [("a", "+"), ("b", "-"), ("c", "+"), ("d", "-")],
            [("e1", "a", "b"), ("e2", "c", "d")])


def test_pf_a2():
    g = builtin_graph("a2")
    pf = perron_frobenius(g)
    assert pf.delta == pytest.approx(1.0, abs=1e-11)
    assert pf.mu == pytest.approx((1.0, 1.0))


def test_pf_a3_vs_dense_eigensolver():
    g = builtin_graph("a3")
    pf = perron_frobenius(g)
    # independent oracle: dense symmetric eigensolver on the adjacency
    w, v = np.linalg.eigh(g.adjacency())
    top = w[-1]
    vec = np.abs(v[:, -1])
    vec = vec / vec.min()
    assert pf.delta == pytest.approx(top, abs=1e-10)
    assert np.allclose(pf.mu, vec, atol=1e-9)
    assert pf.delta == pytest.approx(math.sqrt(2), abs=1e-10)
    assert pf.mu[g.vertex("m")] == pytest.approx(math.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_pf_path_closed_form(n):
    g = builtin_graph(f"a{n}")
    pf = perron_frobenius(g)
    assert pf.delta == pytest.approx(2 * math.cos(math.pi / (n + 1)), abs=1e-9)


def test_pf_residual_invariant():
    for name in ("a2", "a3", "s4", "a6"):
        g = builtin_graph(name)
        pf = perron_frobenius(g)
        assert pf.residual() <= pf.tol


def test_pf_tol_below_attainable_residual_is_an_input_error():
    with pytest.raises(ValueError):
        perron_frobenius(builtin_graph("a3"), tol=1e-30)


def test_sigma_values(a2, a3):
    ga, pa = a2.g, a2.pf
    assert pa.sigma(0) == pytest.approx(1.0)
    gb, pb = a3.g, a3.pf
    e1 = gb.oriented_edge_by_name("e1")
    assert pb.sigma(e1) == pytest.approx(2 ** -0.25, abs=1e-9)
    for g, pf in ((ga, pa), (gb, pb)):
        for e in g.oriented_edges:
            assert pf.sigma(e) * pf.sigma(g.opp(e)) == pytest.approx(1.0, abs=1e-12)


def test_loops_at_examples(a2, a3):
    assert a2.basis(1, EVEN) == [Loop(a2.g.vertex("v"), (0, 1))]   # e e'
    m = a3.g.vertex("m")
    assert a3.basis(1, EVEN) == [Loop(m, (0, 1)), Loop(m, (2, 3))]


def test_loop_counts_match_adjacency_powers():
    # transfer-matrix oracle on every graph with <= 8 vertices, k <= 6
    for name in ("a2", "a3", "s4", "a5"):
        g = builtin_graph(name)
        alg = LoopAlgebra(g, perron_frobenius(g))
        a2k = np.linalg.matrix_power(g.adjacency(), 2)
        power = np.eye(g.n_vertices)
        for k in range(0, 7):
            bases = [lp.base for s in (EVEN, ODD) for lp in alg.basis(k, s)]
            for v in range(g.n_vertices):
                assert bases.count(v) == round(power[v, v])
            power = power @ a2k


def test_mu_override():
    from graphloops import pf_from_mu
    doc = builtin_graph("a3").to_json_dict()
    doc["mu"] = {"m": math.sqrt(2), "l": 1.0, "r": 1.0}
    g = load_graph(json.dumps(doc))
    pf = pf_from_mu(g, doc["mu"])
    assert pf.delta == pytest.approx(math.sqrt(2), abs=1e-9)
    with pytest.raises(GraphError):
        pf_from_mu(g, {"m": 2.0, "l": 1.0, "r": 1.0})
    with pytest.raises(GraphError):
        pf_from_mu(g, {"m": -1.0, "l": 1.0, "r": 1.0})


@pytest.mark.parametrize("name", ["a2", "a3", "s4", "a4", "a7", "a200"])
def test_edge_tables_match_their_definitions(name):
    g = builtin_graph(name)
    pf = perron_frobenius(g)
    for e in g.oriented_edges:
        i, rev = divmod(e, 2)
        s, t = g.edge_source[i], g.edge_target[i]
        s, t = (t, s) if rev else (s, t)
        assert (g.src(e), g.tgt(e)) == (s, t)
        assert pf.sigma(e) == (pf.mu[t] / pf.mu[s]) ** 0.5
        assert pf.sigma(e) == pytest.approx(math.sqrt(pf.mu[t] / pf.mu[s]),
                                            rel=1e-15)
    for v in range(g.n_vertices):
        assert g.edges_from(v) == tuple(e for e in g.oriented_edges
                                        if g.src(e) == v)
        assert g._in[v] == tuple(e for e in g.oriented_edges
                                        if g.tgt(e) == v)


@pytest.mark.parametrize("name", ["a3", "s4"])
def test_graph_from_its_fields_equals_its_built_twin(name):
    # the name index is derived, not a field: a graph made from its five
    # public fields, or by dataclasses.replace, resolves every name
    g = builtin_graph(name)
    direct = BipartiteGraph(g.vertex_names, g.parity, g.edge_names,
                            g.edge_source, g.edge_target)
    renamed = tuple(n + "!" for n in g.vertex_names)
    replaced = dataclasses.replace(g, vertex_names=renamed)
    assert direct == g and hash(direct) == hash(g)
    assert replaced != g and isinstance(hash(replaced), int)
    for v, n in enumerate(g.vertex_names):
        assert direct.vertex(n) == v
        assert replaced.vertex(renamed[v]) == v
        with pytest.raises(GraphError):
            replaced.vertex(n)
