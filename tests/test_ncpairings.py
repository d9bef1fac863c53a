import math

import pytest
from hypothesis import given, settings, strategies as st

from graphloops.ncpairings import (catalan, free_poisson_moments,
                                   indecomposable_dimension_series,
                                   is_noncrossing, moment_generating_series,
                                   narayana, noncrossing_pairings)

GOLDEN = (1 + math.sqrt(5)) / 2


def phi_quadratic_residual(delta, z, nterms=80):
    """|Phi - 1 - z(delta-1)Phi - z Phi^2| with Phi summed numerically at z."""
    coeffs = moment_generating_series(delta, nterms)
    phi = sum(c * z ** i for i, c in enumerate(coeffs))
    return abs(phi - 1.0 - z * (delta - 1.0) * phi - z * phi * phi)


def test_counts_small():
    assert len(noncrossing_pairings(2)) == 1
    assert len(noncrossing_pairings(4)) == 2
    assert len(noncrossing_pairings(8)) == 14


@pytest.mark.parametrize("k", range(0, 11))
def test_counts_catalan(k):
    assert len(noncrossing_pairings(2 * k)) == catalan(k)


def test_odd_input_rejected():
    with pytest.raises(ValueError):
        noncrossing_pairings(3)


def test_pairings_are_noncrossing_and_perfect():
    for pairing in noncrossing_pairings(10):
        points = sorted(p for pair in pairing for p in pair)
        assert points == list(range(1, 11))
        assert is_noncrossing(pairing)


def test_first_moment_is_delta():
    for delta in (1.0, math.sqrt(2), 2.0, 3.5):
        for method in ("recursion", "closed_form", "narayana"):
            m = free_poisson_moments(delta, 4, method)
            assert m[0] == pytest.approx(1.0)
            assert m[1] == pytest.approx(delta, rel=1e-12)


@pytest.mark.parametrize("method", ["recursion", "closed_form", "narayana"])
@pytest.mark.parametrize("delta", [0.5, float("nan"), -math.inf])
def test_delta_below_one_or_nan_rejected(method, delta):
    with pytest.raises(ValueError, match="delta"):
        free_poisson_moments(delta, 3, method)


def test_delta_one_gives_catalan():
    m = free_poisson_moments(1.0, 10)
    for n in range(11):
        assert m[n] == pytest.approx(catalan(n), rel=1e-10)


def test_sqrt2_second_moment():
    m = free_poisson_moments(math.sqrt(2), 2)
    assert m[2] == pytest.approx(2 + math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("delta", [1.0, math.sqrt(2), GOLDEN, 2.0, 3.0])
def test_three_methods_agree(delta):
    rec = free_poisson_moments(delta, 12, "recursion")
    clo = free_poisson_moments(delta, 12, "closed_form")
    nar = free_poisson_moments(delta, 12, "narayana")
    for a, b, c in zip(rec, clo, nar):
        assert b == pytest.approx(a, rel=1e-9)
        assert c == pytest.approx(a, rel=1e-9)


def test_delta_below_one_rejected():
    with pytest.raises(ValueError):
        free_poisson_moments(0.5, 4)


@given(st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=-0.05, max_value=0.05),
       st.floats(min_value=-0.05, max_value=0.05))
@settings(max_examples=60, deadline=None)
def test_generating_function_quadratic(delta, re_z, im_z):
    # Phi - 1 = z (delta-1) Phi + z Phi^2 inside the convergence disc
    z = complex(re_z, im_z)
    assert phi_quadratic_residual(delta, z) <= 1e-10


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_narayana_rows_sum_to_catalan(n):
    assert sum(narayana(n, k) for k in range(1, n + 1)) == catalan(n)


def test_series_matches_recursion_high_order():
    coeffs = moment_generating_series(2.0, 20)
    rec = free_poisson_moments(2.0, 20, "recursion")
    for a, b in zip(coeffs, rec):
        assert a == pytest.approx(b, rel=1e-9)


def test_indecomposable_series():
    assert indecomposable_dimension_series(4) == [1, 1, 2, 5]
    assert indecomposable_dimension_series(6) == [1, 1, 2, 5, 14, 42]
