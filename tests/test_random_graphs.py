"""Property tests over randomly generated bipartite graphs.

The fixture graphs pin the arithmetic; these sweeps check that nothing
secretly depends on their symmetry (single even vertex, equal weights, ...).
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from graphloops import (EVEN, ODD, BipartiteGraph, LoopAlgebra,
                        perron_frobenius)
from graphloops.tangles import random_element
from graphloops.traces import (_phi_word_pairing, _phi_words, _sigma_table,
                               phi_vertex, trace_k)


@st.composite
def bipartite_graphs(draw):
    """Connected bipartite multigraph: every odd vertex hangs off an even
    one, every further even vertex hangs off an odd one, plus a few extra
    (possibly parallel) edges."""
    n_even = draw(st.integers(min_value=1, max_value=3))
    n_odd = draw(st.integers(min_value=1, max_value=3))
    evens = [f"u{i}" for i in range(n_even)]
    odds = [f"w{i}" for i in range(n_odd)]
    vertices = [(v, "+") for v in evens] + [(v, "-") for v in odds]
    edges = []
    placed_evens = [evens[0]]
    for w in odds:
        u = draw(st.sampled_from(placed_evens))
        edges.append((f"t{len(edges)}", u, w))
    for u in evens[1:]:
        w = draw(st.sampled_from(odds))
        edges.append((f"t{len(edges)}", u, w))
    extra = draw(st.integers(min_value=0, max_value=3))
    for j in range(extra):
        a = draw(st.sampled_from(evens))
        b = draw(st.sampled_from(odds))
        edges.append((f"x{j}", a, b))
    return BipartiteGraph.build(vertices, edges)


# A graph the strategy above draws, on which a PF residual measured before
# the rescale to min mu = 1 can pass while PFData.residual() fails 1e-12.
PF_RESIDUAL_EDGE_CASE = BipartiteGraph.build(
    [("u0", "+"), ("u1", "+"), ("u2", "+"),
     ("w0", "-"), ("w1", "-"), ("w2", "-")],
    [("t0", "u0", "w0"), ("t1", "u0", "w1"), ("t2", "u0", "w2"),
     ("t3", "u1", "w0"), ("t4", "u2", "w0"), ("x0", "u1", "w1")])


@given(bipartite_graphs())
@example(PF_RESIDUAL_EDGE_CASE)
@settings(max_examples=40, deadline=None)
def test_pf_and_sigma_structure(g):
    pf = perron_frobenius(g)
    assert pf.residual() <= pf.tol
    assert min(pf.mu) == 1.0
    for e in g.oriented_edges:
        assert abs(pf.sigma(e) * pf.sigma(g.opp(e)) - 1.0) <= 1e-12


@given(bipartite_graphs())
@settings(max_examples=25, deadline=None)
def test_loop_counts_match_transfer_matrix(g):
    alg = LoopAlgebra(g, perron_frobenius(g))
    a2k = np.linalg.matrix_power(g.adjacency(), 2)
    power = np.eye(g.n_vertices)
    for k in range(3):
        bases = [lp.base for s in (EVEN, ODD) for lp in alg.basis(k, s)]
        for v in range(g.n_vertices):
            assert bases.count(v) == round(power[v, v])
        power = power @ a2k


@given(bipartite_graphs(), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=25, deadline=None)
def test_algebra_identities_hold(g, seed):
    alg = LoopAlgebra(g, perron_frobenius(g))
    rng = np.random.default_rng(seed)
    for t in (0, 1):
        shading = EVEN if t % 2 == 0 else ODD
        a = random_element(alg, max(t, 1), shading, rng)
        b = random_element(alg, max(t, 1), shading, rng)
        c = random_element(alg, max(t, 1), shading, rng)
        assoc = (alg.wedge(t, alg.wedge(t, a, b), c)
                 - alg.wedge(t, a, alg.wedge(t, b, c)))
        assert assoc.norm_inf() <= 1e-9 * max(1.0, a.norm_inf() ** 3)
        anti = (alg.involution(alg.wedge(t, a, b))
                - alg.wedge(t, alg.involution(b), alg.involution(a)))
        assert anti.norm_inf() <= 1e-9
    # trace property and pairing/recursion agreement at grade 1
    a = random_element(alg, 1, ODD, rng)
    b = random_element(alg, 2, ODD, rng)
    d = (trace_k(alg, 1, alg.wedge(1, a, b))
         - trace_k(alg, 1, alg.wedge(1, b, a)))
    assert np.abs(d).max() <= 1e-9
    for lp in alg.basis(2, EVEN)[:12]:
        x = alg.single_loop(lp)
        assert abs(_phi_word_pairing(alg, lp.edges)
                   - phi_vertex(alg, x, lp.base)) <= 1e-10


@given(bipartite_graphs(), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_markov_on_random_graphs(g, seed):
    alg = LoopAlgebra(g, perron_frobenius(g))
    rng = np.random.default_rng(seed)
    k = 2
    e_k = alg.jones_projection(k, tower=True)
    y = random_element(alg, 1, ODD, rng)
    lhs = alg.pf.delta * trace_k(alg, k, alg.wedge(k, alg.include_step(y), e_k))
    rhs = trace_k(alg, k - 1, y)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


@given(bipartite_graphs())
@settings(max_examples=20, deadline=None)
def test_phi_kernel_matches_pairing_sum(g):
    # every loop of length <= 6, one kernel call per (level, shading)
    alg = LoopAlgebra(g, perron_frobenius(g))
    sig = _sigma_table(alg)
    for level in range(4):
        for shading in (EVEN, ODD):
            basis = alg.basis(level, shading)
            got = _phi_words(alg.loop_words(level, shading)[1], sig)
            for lp, value in zip(basis, got):
                want = _phi_word_pairing(alg, lp.edges)
                assert abs(value - want) <= 1e-12 * abs(want), lp
