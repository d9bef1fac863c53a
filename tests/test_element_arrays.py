"""The array operations of `LoopAlgebra` against a dict-of-loops reference.

The reference below is the loop-by-loop dict code the array form replaced:
every product builds each output loop as a tuple and adds its coefficient
into a running dict sum, then drops |c| <= PRUNE_TOL times the largest
|coefficient| it added.  `_merge` sums equal rows in the same order, so the
two agree exactly: same loops, same insertion order, same coefficients to
the last bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from graphloops import EVEN, ODD, LoopAlgebra, Loop, perron_frobenius
from graphloops.elements import PRUNE_TOL
from graphloops.ncpairings import noncrossing_pairings
from test_random_graphs import bipartite_graphs


class _Sum(dict):
    """A running dict sum that remembers the largest |c| added to it."""

    scale = 0.0

    def add(self, key, c):
        self[key] = self.get(key, 0.0) + c
        self.scale = max(self.scale, abs(c))

    def pruned(self):
        return {lp: c for lp, c in self.items()
                if abs(c) > PRUNE_TOL * self.scale}


def _mirror(edges):
    return tuple(e ^ 1 for e in reversed(edges))


def _frame_weight(alg, edges, k, power):
    w = 1.0
    for j in range(k):
        if edges[-1 - j] != edges[j] ^ 1:
            return 0.0
        w *= alg.pf.sigma(edges[j]) ** power
    return w


def ref_add(x, y):
    out = _Sum()
    for lp, c in list(x.terms.items()) + list(y.terms.items()):
        out.add(lp, c)
    return out.pruned()


def ref_wedge(alg, t, a, b):
    heads = {}
    for lb, cb in b.terms.items():
        heads.setdefault((lb.base, lb.edges[:t]), []).append((lb.edges[t:], cb))
    out = _Sum()
    for la, ca in a.terms.items():
        stem, tail = la.edges[:len(la.edges) - t], la.edges[len(la.edges) - t:]
        head = _mirror(tail)
        w = _frame_weight(alg, head + tail, t, -1)
        for rest, cb in heads.get((la.base, head), ()):
            out.add(Loop(la.base, stem + rest), ca * cb * w)
    return out.pruned()


def ref_involution(alg, x):
    out = _Sum()
    for lp, c in x.terms.items():
        out.add(Loop(lp.base, _mirror(lp.edges)), c.conjugate())
    return out.pruned()


def ref_turn(alg, x, steps, curved):
    s, mu, out = steps % (2 * x.level), alg.pf.mu, _Sum()
    for lp, c in x.terms.items():
        edges = lp.edges[s:] + lp.edges[:s]
        key = Loop(alg.g.src(edges[0]), edges)
        out.add(key, c * (mu[lp.base] / mu[key.base]) if curved else c)
    return out.pruned()


def ref_include_step(alg, x):
    g, out = alg.g, _Sum()
    for lp, c in x.terms.items():
        for e in g._in[lp.base]:
            out.add(Loop(g.src(e), (e,) + lp.edges + (e ^ 1,)),
                    c * alg.pf.sigma(e))
    return out.pruned()


def ref_expect_step(alg, x):
    out = _Sum()
    for lp, c in x.terms.items():
        w = _frame_weight(alg, lp.edges, 1, -3)
        if w:
            out.add(Loop(alg.g.tgt(lp.edges[0]), lp.edges[1:-1]),
                    c * (w / alg.pf.delta))
    return out.pruned()


def ref_tl_element(alg, pairing, shading):
    g, out = alg.g, _Sum()
    partner = {i: j for p in pairing for i, j in (p, p[::-1])}

    def walk(pos, at, stack, edges, weight):
        if pos > len(partner):
            out.add(Loop(at, tuple(edges)), weight)
        elif partner[pos] > pos:
            for e in g.edges_from(at):
                walk(pos + 1, g.tgt(e), stack + [e], edges + [e],
                     weight * alg.pf.sigma(e))
        else:
            e = stack[-1]
            walk(pos + 1, g.src(e), stack[:-1], edges + [e ^ 1], weight)

    for v in g.vertices_of_parity(shading):
        walk(1, v, [], [], 1.0)
    return out.pruned()


def assert_canonical(x):
    n = len(x.coeff)
    assert x.base.dtype == np.int32 and x.words.dtype == np.int32
    assert x.base.shape == (n,) and x.words.shape == (n, 2 * x.level)
    assert len(x.terms) == n                     # rows are distinct
    assert not (x.base.flags.writeable or x.words.flags.writeable
                or x.coeff.flags.writeable)
    assert np.all(x.coeff != 0)


def assert_same(got, want, exact=True):
    assert_canonical(got)
    if exact:
        assert list(got.terms.items()) == list(want.items())
        return
    # numpy multiplies complex arrays with fused multiply-adds where the CPU
    # has them, CPython does not: a complex-by-complex product may differ in
    # its last bit, so only those coefficients get a rounding allowance
    assert list(got.terms) == list(want)
    got, want = np.array(list(got.terms.values())), np.array(list(want.values()))
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(initial=1.0))


def _samples(alg, rng, max_level, max_terms=32):
    """Random real and complex elements, on up to max_terms basis loops in
    random order, of every level up to max_level and both shadings, and
    the empty element of each."""
    out = []
    for level in range(max_level + 1):
        for shading in (EVEN, ODD):
            basis = alg.basis(level, shading)
            loops = [basis[i] for i in rng.permutation(len(basis))[:max_terms]]
            x = alg.element([(lp, float(rng.standard_normal())) for lp in loops],
                            level, shading)
            z = alg.element([(lp, complex(*rng.standard_normal(2)))
                             for lp in loops], level, shading)
            out += [x, z, alg.zero(level, shading)]
    return out


def check_every_op(alg, rng, max_level):
    xs = _samples(alg, rng, max_level)
    for x in xs:
        assert_canonical(x)
        assert_same(alg.involution(x), ref_involution(alg, x))
        assert_same(x + x.scale(-1.0), {})
        assert_same(alg.include_step(x), ref_include_step(alg, x))
        if x.level:
            assert_same(alg.expect_step(x), ref_expect_step(alg, x))
            assert_same(alg.rotate(x), ref_turn(alg, x, 2, True))
            assert_same(alg.to_grade(x), ref_turn(alg, x, x.level, True))
            assert_same(alg.shift_base(x, 3), ref_turn(alg, x, 3, False))
        for y in xs:
            if (y.level, y.shading) == (x.level, x.shading):
                assert_same(x + y, ref_add(x, y))
            if y.shading != x.shading:
                continue
            exact = not (np.iscomplexobj(x.coeff) and np.iscomplexobj(y.coeff))
            for t in range(min(x.level, y.level) + 1):
                assert_same(alg.wedge(t, x, y), ref_wedge(alg, t, x, y), exact)
    for n in range(4):
        for pairing in noncrossing_pairings(2 * n):
            for shading in (EVEN, ODD):
                assert_same(alg.tl_element(pairing, shading),
                            ref_tl_element(alg, pairing, shading))


def test_array_ops_equal_the_dict_reference(test_algebras):
    rng = np.random.default_rng(16)
    for name, alg in test_algebras.items():
        check_every_op(alg, rng, 2 if name == "s4" else 3)


def test_merge_sums_in_input_order_and_prunes(a3):
    lp, other = a3.basis(1, EVEN)
    x = a3.element([(other, 0.1), (lp, 0.2), (other, 0.2), (lp, -0.2)])
    assert list(x.terms.items()) == [(other, 0.1 + 0.2)]
    tiny = a3.element([(lp, 1.0), (other, 1.0)]) + a3.element([(lp, -1.0 + 1e-15)])
    assert list(tiny.terms.items()) == [(other, 1.0)]
    assert_canonical(tiny)
    # the bound is relative to the largest |input|: small elements keep
    # their rows, and only their own near-cancellations go
    small = a3.cup().scale(1e-15)
    assert np.array_equal(small.coeff, 1e-15 * a3.cup().coeff)
    assert_canonical(small)
    cup = a3.cup().scale(1e-8)
    assert len(a3.wedge(0, cup, cup).coeff) == 4
    near = a3.element([(lp, 1e-15), (other, 1e-15), (lp, -1e-15 + 1e-30)])
    assert list(near.terms.items()) == [(other, 1e-15)]


@given(bipartite_graphs(), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=15, deadline=None)
def test_array_ops_equal_the_dict_reference_on_random_graphs(g, seed):
    check_every_op(LoopAlgebra(g, perron_frobenius(g)),
                   np.random.default_rng(seed), 2)
