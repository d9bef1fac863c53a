"""The one walk that enumerates loops and paths, against the enumerations
it replaced.

`loops_at` is the recursive depth-first walk over edge-id tuples that
`LoopAlgebra.basis` and `gram_matrix` used; `path_trie` is the
breadth-first double loop that built the Fock path basis one
(start, edges) tuple at a time.  The array walks (`LoopAlgebra.loop_words`,
`PathBasis`) must give the same rows in the same order, and the same path
weights bit for bit: every report that lists loops or paths reads that
order.
"""

import pytest
from hypothesis import given, settings

from graphloops import EVEN, ODD, LoopAlgebra, Loop, perron_frobenius
from graphloops.fock import PathBasis
from test_random_graphs import bipartite_graphs


def loops_at(g, v, k):
    """All closed composable edge sequences of length 2k based at v,
    depth first with edges in id order, as edge-id tuples."""
    out = []

    def walk(at, prefix):
        if len(prefix) == 2 * k:
            if at == v:
                out.append(prefix)
            return
        for e in g.edges_from(at):
            walk(g.tgt(e), prefix + (e,))

    walk(v, ())
    return out


def path_trie(alg, depth):
    """Every path of length <= depth as (start, edges), in length order,
    each length in the order of its parents and each parent's children by
    in-edge id, with the trie arrays (first, parent, norm_sq, offsets)."""
    g = alg.g
    n_v = g.n_vertices
    paths = [(v, ()) for v in range(n_v)]
    first, parent, norm_sq = [-1] * n_v, [-1] * n_v, [1.0] * n_v
    offsets = [0, n_v]
    for _ in range(depth):
        for i in range(offsets[-2], offsets[-1]):
            start, edges = paths[i]
            for e in g.edges_into(start):
                paths.append((g.src(e), (e,) + edges))
                first.append(e)
                parent.append(i)
                norm_sq.append(norm_sq[i] * alg.pf.norm_sq(e))
        offsets.append(len(paths))
    return paths, first, parent, norm_sq, offsets


def assert_basis_in_walk_order(alg, max_level):
    g = alg.g
    for level in range(max_level + 1):
        for shading in (EVEN, ODD):
            want = [Loop(v, es) for v in g.vertices_of_parity(shading)
                    for es in loops_at(g, v, level)]
            base, words = alg.loop_words(level, shading)
            assert words.shape == (len(want), 2 * level)
            assert base.tolist() == [lp.base for lp in want]
            assert alg.basis(level, shading) == want


def assert_trie_in_walk_order(alg, depth):
    paths, first, parent, norm_sq, offsets = path_trie(alg, depth)
    basis = PathBasis(alg, depth)
    assert len(basis) == len(paths)
    assert basis.offsets == offsets
    assert basis.first.tolist() == first
    assert basis.parent.tolist() == parent
    assert basis.norm_sq.tolist() == norm_sq          # bit for bit


def test_basis_matches_depth_first_walk(test_algebras):
    for name, alg in test_algebras.items():
        assert_basis_in_walk_order(alg, 4 if name == "s4" else 5)


def test_path_trie_matches_breadth_first_build(test_algebras):
    for alg in test_algebras.values():
        for depth in range(7):
            assert_trie_in_walk_order(alg, depth)


@given(bipartite_graphs())
@settings(max_examples=25, deadline=None)
def test_walks_match_the_references_on_random_graphs(g):
    alg = LoopAlgebra(g, perron_frobenius(g))
    assert_basis_in_walk_order(alg, 3)
    assert_trie_in_walk_order(alg, 4)


def test_loop_words_rejects_a_negative_level(a3):
    with pytest.raises(ValueError):
        a3.loop_words(-1, EVEN)
