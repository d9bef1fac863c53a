"""Non-crossing pairings and free-Poisson moment computations."""

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


def _series_inverse(coeffs: list[float]) -> list[float]:
    """Power-series inverse 1/f for f with f(0) = 1, same truncation."""
    n = len(coeffs)
    inv = [0.0] * n
    inv[0] = 1.0 / coeffs[0]
    for m in range(1, n):
        s = sum(coeffs[j] * inv[m - j] for j in range(1, m + 1))
        inv[m] = -s / coeffs[0]
    return inv


def _sqrt_series(coeffs: list[float]) -> list[float]:
    """Power-series square root with s(0) = +1, via s*s = f recurrence."""
    n = len(coeffs)
    s = [0.0] * n
    s[0] = 1.0
    for m in range(1, n):
        acc = sum(s[j] * s[m - j] for j in range(1, m))
        s[m] = (coeffs[m] - acc) / (2.0 * s[0])
    return s


def _mul_series(a: list[float], b: list[float], n: int) -> list[float]:
    out = [0.0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def moment_generating_series(delta: float, nmax: int) -> list[float]:
    """Taylor coefficients of the one-cup moment generating function.

    Phi(z) = (1 - (delta-1) z) / (2z) * (1 - sqrt(1 - 4z / (1-(delta-1)z)^2)),
    branch fixed by Phi(0) = 1.  Coefficients are extracted by series
    recurrences (geometric series, square-root recurrence), no numerical
    differentiation.
    """
    n = nmax + 2                      # room for the division by z
    c = delta - 1.0
    # g = 1/(1 - c z) as a series, so 1/(1-cz)^2 = g*g
    g = [c ** i for i in range(n)]
    g2 = _mul_series(g, g, n)
    under = [0.0] * n                 # 1 - 4 z g^2
    under[0] = 1.0
    for i in range(1, n):
        under[i] = -4.0 * g2[i - 1]
    s = _sqrt_series(under)
    one_minus_s = [-x for x in s]
    one_minus_s[0] += 1.0             # starts at order z
    shifted = one_minus_s[1:] + [0.0]  # divide by z
    lin = [1.0, -c] + [0.0] * (n - 2)  # (1 - (delta-1) z)
    phi = _mul_series(lin, shifted, n)
    phi = [x / 2.0 for x in phi]
    return phi[: nmax + 1]


def free_poisson_moments(delta: float, nmax: int,
                         method: str = "recursion") -> list[float]:
    """Moments m_0..m_nmax of the free Poisson law with R-transform
    delta/(1-z), by one of three independent routes.

    recursion:    m_n = (delta-1) m_{n-1} + sum_{k<n} m_k m_{n-1-k}
    closed_form:  Taylor coefficients of the generating function
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
    """Coefficients 1..nmax of 1 - 1/Phi_TL with Phi_TL(z) = sum Catalan(n) z^n.

    This is the generating function of the degrees of free generators of the
    Temperley-Lieb graded algebra (1, 1, 2, 5, ... for n = 1..4).
    """
    cat = [float(catalan(n)) for n in range(nmax + 1)]
    inv = _series_inverse(cat)
    out = [-x for x in inv]
    out[0] += 1.0
    return [round(x) for x in out[1: nmax + 1]]
