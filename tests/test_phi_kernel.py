"""The phi kernel: the interval recursion over integer word arrays, and the
grade-k trace built on it, against per-loop references written here."""

import numpy as np
import pytest

from graphloops import EVEN, ODD, Loop
from graphloops.tangles import random_element
from graphloops.traces import (_CHUNK, _phi_word, _phi_word_pairing,
                               _phi_words, _sigma_table, gram_psd_check,
                               trace_k)


def _kernel_matches_pairing(alg, max_len):
    sig = _sigma_table(alg)
    for level in range(max_len // 2 + 1):
        for shading in (EVEN, ODD):
            basis = alg.basis(level, shading)
            got = _phi_words(alg.loop_words(level, shading)[1], sig)
            for lp, value in zip(basis, got):
                want = _phi_word_pairing(alg, lp.edges)
                assert abs(value - want) <= 1e-12 * abs(want), lp


def test_kernel_matches_pairing_sum_up_to_length_10(test_algebras):
    for alg in test_algebras.values():
        _kernel_matches_pairing(alg, 10)


def _phi_recursive(alg, word):
    """The splitting recursion over tuple slices, summed in the same order
    as the kernel: equal to it bit for bit."""
    if not word:
        return 1.0
    total = 0.0
    for q in range(1, len(word), 2):
        if word[q] == alg.g.opp(word[0]):
            total += (_phi_recursive(alg, word[1:q])
                      * _phi_recursive(alg, word[q + 1:]))
    return total * alg.pf.sigma(word[0])


def test_kernel_equals_recursion_bit_for_bit(test_algebras):
    for alg in test_algebras.values():
        for level in range(5):
            for shading in (EVEN, ODD):
                basis = alg.basis(level, shading)
                got = _phi_words(alg.loop_words(level, shading)[1],
                                 _sigma_table(alg))
                assert got.tolist() == [_phi_recursive(alg, lp.edges)
                                        for lp in basis]


def _trace_reference(alg, k, x):
    """trace_k loop by loop: the frame test, sigma^-3 per frame edge and
    the pairing sum of the middle word, placed at the middle vertex.
    Returns the values and, per vertex, the sum of |contributions|."""
    g, pf = alg.g, alg.pf
    values, scale = {}, {}
    for lp, c in x.terms.items():
        edges = lp.edges
        if any(edges[-1 - j] != g.opp(edges[j]) for j in range(k)):
            continue
        w = c
        for e in edges[:k]:
            w *= pf.sigma(e) ** -3
        w *= _phi_word_pairing(alg, edges[k: len(edges) - k])
        v = g.tgt(edges[k - 1]) if k else lp.base
        values[v] = values.get(v, 0.0) + w
        scale[v] = scale.get(v, 0.0) + abs(w)
    return values, scale


def _assert_trace_matches(alg, k, x):
    got = trace_k(alg, k, x)
    assert got.shading == (x.shading if k % 2 == 0 else -x.shading)
    want, scale = _trace_reference(alg, k, x)
    for v in set(got.values) | set(want):
        assert abs(got[v] - want.get(v, 0.0)) <= 1e-12 * scale.get(v, 0.0), v


@pytest.mark.parametrize("complex_coeffs", [False, True],
                         ids=["real", "complex"])
def test_trace_k_matches_per_loop_reference(test_algebras, complex_coeffs):
    rng = np.random.default_rng(15)
    for alg in test_algebras.values():
        for k in range(4):
            for level in range(k, k + 4):
                for shading in (EVEN, ODD):
                    x = random_element(alg, level, shading, rng)
                    if complex_coeffs:
                        x = alg.element(
                            {lp: c + 1j * rng.standard_normal()
                             for lp, c in x.terms.items()},
                            level=level, shading=shading)
                    _assert_trace_matches(alg, k, x)


def test_trace_k_of_empty_and_level_zero_elements(test_algebras):
    for alg in test_algebras.values():
        for k in range(4):
            for shading in (EVEN, ODD):
                zero = alg.zero(k + 1, shading)
                assert trace_k(alg, k, zero).values == {}
        evens = alg.g.vertices_of_parity(EVEN)
        x = alg.element({Loop(v, ()): 0.5 + v for v in evens},
                        level=0, shading=EVEN)
        assert trace_k(alg, 0, x).values == {v: 0.5 + v for v in evens}
        _assert_trace_matches(alg, 0, x)


def test_batch_past_one_chunk_equals_hand_split(s4):
    words = s4.loop_words(4, EVEN)[1]
    words = np.tile(words, (3 * _CHUNK // len(words) + 1, 1))
    assert len(words) > 2 * _CHUNK
    sig = _sigma_table(s4)
    cuts = [0, 37, _CHUNK - 1, _CHUNK + 500, 2 * _CHUNK + 3, len(words)]
    pieces = [_phi_words(words[a:b], sig) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(_phi_words(words, sig), np.concatenate(pieces))


def test_sigma_override_reaches_the_kernel(a3):
    bad = lambda e: (-1.0 if e % 2 == 0 else 1.0) * a3.pf.sigma(e)
    for lp in a3.basis(2, EVEN):
        want = _phi_word_pairing(a3, lp.edges, bad)
        assert abs(_phi_word(a3, lp.edges, bad) - want) <= 1e-12 * abs(want)
    lp = a3.basis(1, EVEN)[0]
    assert _phi_word(a3, lp.edges, bad) == -_phi_word(a3, lp.edges)
    assert not gram_psd_check(a3, 1, sigma=bad)["pass"]
