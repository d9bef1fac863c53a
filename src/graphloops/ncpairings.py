"""Non-crossing pairings, free-Poisson moments and the Temperley-Lieb
free-generator degrees, each expectation from its closed form."""

from __future__ import annotations

from functools import lru_cache
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Number of non-crossing pairings of 2n points with k `outer` blocks
    weighted in the delta-expansion; N(n,k) = C(n,k) C(n,k-1) / n."""
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n, k) * comb(n, k - 1) // n


@lru_cache(maxsize=None)
def noncrossing_pairings(two_k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All non-crossing perfect pairings of {1..two_k}, deterministic order.

    Each pairing is a tuple of (i, j) pairs with i < j, sorted by i.
    Point 1 pairs with an even-distance partner q; the inside {2..q-1} and
    outside {q+1..2k} recurse independently.
    """
    if two_k % 2:
        raise ValueError("need an even number of points")
    if two_k > 24:
        raise ValueError("pairing enumeration capped at 24 points")

    def rec(points: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not points:
            return [()]
        first = points[0]
        out = []
        for idx in range(1, len(points), 2):
            partner = points[idx]
            inner = points[1:idx]
            outer = points[idx + 1:]
            for pi in rec(inner):
                for po in rec(outer):
                    out.append(tuple(sorted(((first, partner),) + pi + po)))
        return out

    return tuple(rec(tuple(range(1, two_k + 1))))


def is_noncrossing(pairs) -> bool:
    pairs = [tuple(sorted(p)) for p in pairs]
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                return False
    return True


def moment_generating_series(delta: float, nmax: int) -> list[float]:
    """Taylor coefficients of the one-cup moment generating function Phi =
    1 + z (delta-1) Phi + z Phi^2: the Narayana polynomials, by their
    three-term recurrence (n+1) m_n = (2n-1)(delta+1) m_{n-1}
    - (n-2)(delta-1)^2 m_{n-2} from m_0 = 1, m_1 = delta."""
    m = [1.0, float(delta)][: nmax + 1]
    for n in range(2, nmax + 1):
        m.append(((2 * n - 1) * (delta + 1.0) * m[n - 1]
                  - (n - 2) * (delta - 1.0) ** 2 * m[n - 2]) / (n + 1))
    return m


def free_poisson_moments(delta: float, nmax: int,
                         method: str = "recursion") -> list[float]:
    """Moments m_0..m_nmax of the free Poisson law with R-transform
    delta/(1-z), by one of three independent routes.

    recursion:    m_n = (delta-1) m_{n-1} + sum_{k<n} m_k m_{n-1-k}
    closed_form:  the three-term recurrence (`moment_generating_series`)
    narayana:     m_n = sum_k Narayana(n,k) delta^k
    """
    if not delta >= 1.0:                # a NaN delta fails this too
        raise ValueError("delta must be >= 1")
    if nmax > 30:
        raise ValueError("nmax capped at 30")
    if method == "recursion":
        m = [1.0]
        for n in range(1, nmax + 1):
            val = (delta - 1.0) * m[n - 1]
            val += sum(m[k] * m[n - 1 - k] for k in range(n))
            m.append(val)
        return m
    if method == "closed_form":
        return moment_generating_series(delta, nmax)
    if method == "narayana":
        return [
            1.0 if n == 0 else float(sum(narayana(n, k) * delta ** k
                                         for k in range(1, n + 1)))
            for n in range(nmax + 1)
        ]
    raise ValueError(f"unknown method {method!r}")


def indecomposable_dimension_series(nmax: int) -> list[int]:
    """Coefficients 1..nmax of 1 - 1/Phi_TL with Phi_TL(z) = sum Catalan(n) z^n,
    the degrees of free generators of the Temperley-Lieb graded algebra.
    Phi_TL = 1 + z Phi_TL^2 makes 1 - 1/Phi_TL = z Phi_TL, so the n-th is
    Catalan(n-1): 1, 1, 2, 5, ... for n = 1..4."""
    return [catalan(n - 1) for n in range(1, nmax + 1)]
