"""Eta quotients as exponent vectors over the divisors of a level.

A quotient prod_t eta(tz)^(r_t) of level N is stored as {t: r_t} with
every t | N.  The level is carried explicitly and deliberately not
reduced to the lcm of the support: the same exponent vector may be
viewed at any level its divisors allow, which is what lets lower-level
quotients and their rescalings live inside a bigger level's space.

Orders of vanishing at cusps depend only on the cusp denominator c and
are reported in the width-normalized local variable (period N/gcd(c^2,N)),
the normalization under which the orders of a weight-k holomorphic
quotient of prime-power level p^m sum to (k/12)(p^m + p^(m-1)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from .arith import divisors, lcm, prime_power, sigma_range, totient
from .series import QSeries, SeriesDomainError

__all__ = ["EtaQuotient", "ModularityReport", "LogDerivative", "parse_eta"]


class LogDerivative(NamedTuple):
    """D(f)/f of an eta quotient as a weight-2 Eisenstein combination.

    coeffs maps t to the coefficient of E_2(tz), i.e. -t*r_t; the
    combination lies in the weight-2 space exactly when f has weight 0.
    """

    level: int
    coeffs: dict[int, Fraction]
    weight_zero: bool


@dataclass(frozen=True)
class ModularityReport:
    weight: Fraction
    conditions: tuple[tuple[str, bool], ...]
    order_map: dict[int, Fraction]

    @property
    def holomorphic_at_cusps(self) -> bool:
        return all(v >= 0 for v in self.order_map.values())

    @property
    def is_modular(self) -> bool:
        return self.holomorphic_at_cusps and all(ok for _, ok in self.conditions)

    def failed(self) -> list[str]:
        out = [name for name, ok in self.conditions if not ok]
        if not self.holomorphic_at_cusps:
            out.append("nonnegative-cusp-orders")
        return out


class EtaQuotient:
    """prod_{t | level} eta(t z)^(exponents[t])."""

    __slots__ = ("level", "exponents")

    def __init__(self, level: int, exponents: dict[int, int]):
        if level < 1:
            raise ValueError("level must be >= 1")
        exps = {}
        for t, r in exponents.items():
            if level % t:
                raise ValueError(f"divisor {t} does not divide level {level}")
            if r:
                exps[int(t)] = int(r)
        self.level = level
        self.exponents = dict(sorted(exps.items()))

    # -- basic invariants ------------------------------------------------

    def weight(self) -> Fraction:
        return Fraction(sum(self.exponents.values()), 2)

    def offset(self) -> int:
        """Leading exponent of the q-expansion in 1/24 units: sum t*r_t."""
        return sum(t * r for t, r in self.exponents.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        return self.level == other.level and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.level, tuple(self.exponents.items())))

    def key(self) -> tuple:
        """Sort key: (level, sorted exponent items)."""
        return (self.level, tuple(self.exponents.items()))

    # -- expansion ---------------------------------------------------------

    def expansion(self, prec: int) -> QSeries:
        """Exact q-expansion below exponent prec (in 1/24 units, scale 24).

        q^(-offset/24) * f is F = prod_t prod_m (1 - q^(tm))^(r_t) =
        sum c_n q^n, whose logarithmic derivative D(F)/F (D = q d/dq) is
        sum_k b_k q^k with b_k = sum_{t | k} (-t r_t) sigma(k/t), the
        coefficients of log_derivative() times those of sum sigma(m) q^(tm).
        Comparing coefficients in D(F) = F * (D(F)/F) gives the recurrence
        n c_n = sum_{k=1}^{n} b_k c_(n-k); the c_n are integers, so every
        division by n is exact.
        """
        off = self.offset()
        if prec <= off:
            raise SeriesDomainError("precision-exhausted", f"prec {prec} <= offset {off}")
        rel = prec - off
        n = -(-rel // 24)
        sig = sigma_range(1, n)
        b = [0] * n
        for t, lt in self.log_derivative().coeffs.items():
            lt = int(lt)
            for m in range(1, (n - 1) // t + 1):
                b[t * m] += lt * sig[m]
        c = [1] + [0] * (n - 1)
        for j in range(1, n):
            s = sum(map(mul, b[1 : j + 1], c[j - 1 :: -1]))
            c[j], rem = divmod(s, j)
            if rem:
                raise ArithmeticError(f"log-derivative recurrence: {j} does not divide {s}")
        vec = [Fraction(0)] * rel
        for j, cj in enumerate(c):
            if cj:
                vec[24 * j] = Fraction(cj)
        return QSeries(24, off, vec, prec)

    # -- orders at cusps ----------------------------------------------------

    def order_at_denominator(self, c: int) -> Fraction:
        """Order of vanishing at any cusp a/c, width-normalized.

        v = (N / (24 gcd(c^2, N))) * sum_t gcd(c, t)^2 r_t / t; for eta
        quotients the numerator a never enters.
        """
        n = self.level
        if c < 1 or n % c:
            raise ValueError(f"cusp denominator {c} must divide level {n}")
        acc = sum(Fraction(gcd(c, t) ** 2, t) * r for t, r in self.exponents.items())
        return Fraction(n, 24 * gcd(c * c, n)) * acc

    def order_map(self) -> dict[int, Fraction]:
        return {c: self.order_at_denominator(c) for c in divisors(self.level)}

    def total_cusp_order(self) -> Fraction:
        """Sum of cusp orders with denominator multiplicity; prime-power level."""
        pp = prime_power(self.level)
        if pp is None:
            raise ValueError(f"level {self.level} is not a prime power")
        total = Fraction(0)
        for c in divisors(self.level):
            mult = totient(gcd(c, self.level // c))
            total += mult * self.order_at_denominator(c)
        return total

    # -- modularity ----------------------------------------------------------

    def is_modular_on_gamma0(self) -> ModularityReport:
        """Holomorphic-modular-form criteria on Gamma0(level), trivial character."""
        n = self.level
        su = sum(t * r for t, r in self.exponents.items())
        sv = sum((n // t) * r for t, r in self.exponents.items())
        w2 = sum(self.exponents.values())
        prod = Fraction(1)
        for t, r in self.exponents.items():
            prod *= Fraction(t) ** r
        conditions = (
            ("sum t*r_t = 0 mod 24", su % 24 == 0),
            ("sum (N/t)*r_t = 0 mod 24", sv % 24 == 0),
            ("even integer weight", w2 % 4 == 0),
            ("trivial character", _is_rational_square(prod)),
        )
        return ModularityReport(Fraction(w2, 2), conditions, self.order_map())

    # -- transformations ------------------------------------------------------

    def rescale(self, t0: int) -> "EtaQuotient":
        """z -> t0*z: exponent at t moves to t*t0, level multiplies by t0."""
        if t0 < 1:
            raise ValueError("rescale factor must be >= 1")
        return EtaQuotient(self.level * t0, {t * t0: r for t, r in self.exponents.items()})

    def power(self, e: int) -> "EtaQuotient":
        return EtaQuotient(self.level, {t: r * e for t, r in self.exponents.items()})

    def __mul__(self, other: "EtaQuotient") -> "EtaQuotient":
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        level = lcm(self.level, other.level)
        exps = dict(self.exponents)
        for t, r in other.exponents.items():
            exps[t] = exps.get(t, 0) + r
        return EtaQuotient(level, exps)

    def is_primitive(self) -> bool:
        """True iff f is not g(dz) for any eta quotient g and d > 1."""
        if not self.exponents:
            return False
        d = 0
        for t in self.exponents:
            d = gcd(d, t)
        return d == 1

    def log_derivative(self) -> LogDerivative:
        """D(f)/f = -sum_t r_t t E_2(tz), from D(log eta(z)) = -E_2(z)."""
        coeffs = {t: Fraction(-t * r) for t, r in self.exponents.items()}
        return LogDerivative(self.level, coeffs, self.weight() == 0)

    # -- text and JSON -----------------------------------------------------------

    def render(self) -> str:
        if not self.exponents:
            return "1"
        return " * ".join(f"eta({t})^{r}" for t, r in self.exponents.items())

    def to_json(self) -> dict:
        return {"level": self.level, "exponents": {str(t): r for t, r in self.exponents.items()}}

    def __repr__(self):
        return f"EtaQuotient(level={self.level}, {self.render()})"


def _is_rational_square(x: Fraction) -> bool:
    if x <= 0:
        return False
    return _is_square(x.numerator) and _is_square(x.denominator)


def _is_square(n: int) -> bool:
    from math import isqrt

    r = isqrt(n)
    return r * r == n


_ETA_TERM = re.compile(r"^eta\((\d+)\)(?:\^(-?\d+))?$")


def parse_eta(text: str, level: int | None = None) -> EtaQuotient:
    """Parse 'eta(1)^-8*eta(2)^20*eta(4)^-8' (whitespace tolerated)."""
    exps: dict[int, int] = {}
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty eta quotient")
    for token in cleaned.split("*"):
        if token == "1":
            continue
        m = _ETA_TERM.match(token)
        if not m:
            raise ValueError(f"bad eta factor {token!r}")
        t = int(m.group(1))
        if t < 1:
            raise ValueError(f"bad eta argument in {token!r}")
        r = int(m.group(2)) if m.group(2) else 1
        exps[t] = exps.get(t, 0) + r
    if level is None:
        level = 1
        for t in exps:
            level = lcm(level, t)
    return EtaQuotient(level, exps)
