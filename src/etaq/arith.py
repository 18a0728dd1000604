"""Exact integer and rational building blocks.

Everything here is pure and deterministic: Bernoulli numbers from
tangent numbers, divisor power sums, elementary number theory
helpers, the exponent steps of E_k(tz) and eta(tz) at the cusps a/c of
Gamma0(N), and the per-cusp order caps of the order bound, which the
searches read without loading the cusp code.  A cusp carries its own d
with a d = 1 (mod c) (cusps.Cusp), so no SL2(Z) matrix is built here.
Rational values are ``fractions.Fraction`` throughout; nothing in this
module (or anywhere in the certified computation path) touches
floating point.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "bernoulli",
    "sigma",
    "sigma_range",
    "sigma_table",
    "divisors",
    "totient",
    "gamma0_index",
    "cusp_step",
    "denominator_multiplicity",
    "per_cusp_cap",
    "factorize",
    "prime_power",
    "xgcd",
]


def bernoulli(k: int) -> Fraction:
    """B_k for even k >= 0, in the convention with B_1 = -1/2.

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) from the tangent numbers
    T_n of the integer in-place recurrence of Brent and Harvey
    (arXiv:1108.0286), so B_2 = 1/6 and B_4 = -1/30.  Odd or negative
    k is a domain error (the odd values are never needed).
    """
    if k < 0 or k % 2:
        raise ValueError(f"bernoulli is defined here for even k >= 0, got {k}")
    n = k // 2
    if n == 0:
        return Fraction(1)
    tangent = [0, 1] + [0] * (n - 1)
    for i in range(2, n + 1):
        tangent[i] = (i - 1) * tangent[i - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    return Fraction((-1) ** (n - 1) * 2 * n * tangent[n], 4**n * (4**n - 1))


def sigma(power: int, n: int) -> int:
    """Divisor power sum sigma_power(n) = sum of d**power over d | n."""
    if n <= 0:
        raise ValueError(f"sigma requires n >= 1, got {n}")
    return sum(d**power for d in divisors(n))


def sigma_range(power: int, limit: int) -> list[int]:
    """Sieve of sigma_power(n) for 1 <= n <= limit; index 0 is unused."""
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dp = d**power
        for n in range(d, limit + 1, d):
            table[n] += dp
    return table


_sigma_tables: dict[int, tuple[int, ...]] = {}
_sigma_lock = threading.Lock()


def sigma_table(power: int, limit: int) -> tuple[int, ...]:
    """sigma_power(n) at index n for 1 <= n <= limit (index 0 unused),
    read from the one table kept per power.  A table that is too short
    is sieved again to at least twice its length, so it may hold more
    than limit + 1 entries: index or slice what is needed."""
    with _sigma_lock:
        table = _sigma_tables.get(power, ())
        if len(table) <= limit:
            table = tuple(sigma_range(power, max(limit, 2 * len(table))))
            _sigma_tables[power] = table
        return table


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n <= 0:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    if n <= 0:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m and m >= 1, or (1, 0) for n = 1, else None."""
    if n == 1:
        return (1, 0)
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, m),) = fac.items()
    return (p, m)


def totient(n: int) -> int:
    """Euler phi."""
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def gamma0_index(n: int) -> int:
    """mu = [SL2(Z) : Gamma0(n)] = n * prod_{p | n} (1 + 1/p)."""
    mu = n
    for p in factorize(n):
        mu += mu // p
    return mu


def cusp_step(level: int, c: int, t: int) -> int:
    """gcd(c, t)^2 (N/t) / gcd(c^2, N) for c, t | N, always an integer:
    the exponent step of E_k(tz) in the local variable at a cusp a/c of
    Gamma0(N), and 24 times the width-normalized order of eta(tz) there."""
    return gcd(c, t) ** 2 * (level // t) // gcd(c * c, level)


def denominator_multiplicity(level: int, c: int) -> int:
    """Number of inequivalent cusps of Gamma0(level) with denominator c."""
    if level % c:
        raise ValueError(f"{c} does not divide {level}")
    return totient(gcd(c, level // c))


def per_cusp_cap(level: int, c: int) -> int:
    """Per-cusp ceiling on the order: 1 everywhere, except 2 at the
    denominator-2 cusp of level 4."""
    if level == 4 and c == 2:
        return 2
    return 1


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0
