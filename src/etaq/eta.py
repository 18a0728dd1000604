"""Eta quotients as exponent vectors over the divisors of a level.

A quotient prod_t eta(tz)^(r_t) of level N is stored as {t: r_t} with
every t | N.  The level is carried explicitly and deliberately not
reduced to the lcm of the support: the same exponent vector may be
viewed at any level its divisors allow, which is what lets lower-level
quotients and their rescalings live inside a bigger level's space.

Orders of vanishing at cusps depend only on the cusp denominator c and
are reported in the width-normalized local variable (period N/gcd(c^2,N)),
the normalization under which the orders of a weight-k holomorphic
quotient of prime-power level p^m, counted with denominator multiplicity,
sum to (k/12) mu with mu = gamma0_index(p^m) = p^m + p^(m-1).  order_map24
is the one place those orders are computed, and the two mod-24
modularity congruences read its entries at the cusps N and 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import index, mul
from typing import NamedTuple

from .arith import cusp_step, denominator_multiplicity, divisors, prime_power, sigma_table
from .kernels import _digits, _halves, _pack, conv_trunc
from .series import QSeries

__all__ = ["EtaQuotient", "ModularityReport", "LogDerivative", "parse_eta"]

# EtaQuotient.expansion runs its log-derivative recurrence in blocks of
# max(_BLOCK, steps // _BLOCKS) steps; tests/test_eta.py pins both.
_BLOCK = 48
_BLOCKS = 8
# Widest digit, in bits, of the accumulator a block's steps run off
# (_packed_run); tests/test_eta.py pins it.
_RUN_DIGIT_BITS = 128


class LogDerivative(NamedTuple):
    """D(f)/f of an eta quotient as a weight-2 Eisenstein combination.

    coeffs maps t to the coefficient of E_2(tz), i.e. -t*r_t; the
    combination lies in the weight-2 space exactly when f has weight 0.
    """

    level: int
    coeffs: dict[int, Fraction]
    weight_zero: bool


class ModularityReport(NamedTuple):
    weight: Fraction
    conditions: tuple[tuple[str, bool], ...]
    order_map24: dict[int, int]  # EtaQuotient.order_map24, 1/24 units

    @property
    def order_map(self) -> dict[int, Fraction]:
        return {c: Fraction(v, 24) for c, v in self.order_map24.items()}

    @property
    def holomorphic_at_cusps(self) -> bool:
        return all(v >= 0 for v in self.order_map24.values())

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
            try:
                t, r = index(t), index(r)
            except TypeError:
                raise TypeError(f"eta({t!r})^{r!r}: t and the exponent must be integers") from None
            if t < 1:
                raise ValueError(f"the t in eta(t) must be at least 1, got {t}")
            if level % t:
                raise ValueError(f"divisor {t} does not divide level {level}")
            if r:
                exps[t] = r
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

    def expansion(self, steps: int) -> QSeries:
        """The exact q-expansion through ``steps`` q-steps from q^(offset/24).

        q^(-offset/24) * f is F = prod_t P(q^t)^(r_t) = sum c_n q^n, with
        P(x) = prod_{m>=1} (1 - x^m).  Which recurrence runs depends only
        on the shape of f: a quotient with one factor eta(tz)^r takes
        Miller's power recurrence (_pentagonal_power), whose c_n vanish
        off the multiples of t; every other quotient, the empty one too,
        takes the blocked log-derivative recurrence below.

        The logarithmic derivative D(F)/F (D = q d/dq) is
        sum_k b_k q^k with b_k = sum_{t | k} (-t r_t) sigma(k/t): the
        integer weights -t r_t of log_derivative() times the coefficients
        of sum sigma(m) q^(tm).
        Comparing coefficients in D(F) = F * (D(F)/F) gives the recurrence
        n c_n = sum_{k=1}^{n} b_k c_(n-k); the c_n are integers, so every
        division by n is exact.  They are returned as they come.

        The steps run in blocks [lo, hi): the first starts at 1, the others
        at the multiples of max(48, steps // 8) that leave a whole block
        after them, so the last block runs to the end.  In a block, the
        sums over the known c_0..c_(lo-1) are the coefficients lo..hi-1 of
        c[:lo] * b, one ``kernels.conv_trunc(c[:lo], b, hi, lo=lo)`` call,
        and only the triangle c_lo..c_(j-1) is summed step by step: off one
        packed accumulator (_packed_run) while its digits are exact, by a
        dot product per step before 48 steps and after the run.  The
        first block's history is c_0 = 1, so its sums are the b_j
        themselves, with no product: an expansion of fewer than 96 steps
        takes none.  The kernel packs while its digit is at most 256 bits
        wide and takes a dot product per step past that.  One head of
        about lo/7 steps against 17-bit b_k, dots time over packed time
        (Python 3.11.7, 2 shared CPUs): 32-bit c_i gave 3.5x at lo = 150
        and 11.5x at lo = 4000, 128-bit c_i 1.5x to 4.0x, 256-bit c_i (a
        290-bit digit) 0.8x to 1.8x, and 512-bit c_i 0.3x to 0.6x.  The
        heads and the runs share one packing of b per digit width (packs).
        """
        if steps < 1:
            raise ValueError("prec must be >= 1")
        if len(self.exponents) == 1:
            ((t, r),) = self.exponents.items()
            c = [0] * steps
            c[::t] = _pentagonal_power(r, (steps - 1) // t + 1)
            return QSeries(self.offset(), c)
        sig = sigma_table(1, steps)
        b = [0] * steps
        for t, r in self.exponents.items():
            lt = -t * r
            for m in range(1, (steps - 1) // t + 1):
                b[t * m] += lt * sig[m]
        c = [1] + [0] * (steps - 1)
        block = max(_BLOCK, steps // _BLOCKS)
        packs = {}  # b and c packed by digit width, see kernels.conv_trunc
        lo = 1
        while lo < steps:
            hi = lo - lo % block + block
            if hi > steps - block:
                hi = steps
            # the sums over c_0..c_(lo-1) for lo <= j < hi; c = [1] gives b_j.
            # lo goes by keyword: perfbench's tracer reads (xs, ys, hi) positionally
            head = b[lo:hi] if lo == 1 else conv_trunc(c[:lo], b, hi, lo=lo, packs=packs)
            j = lo if steps < _BLOCK else _packed_run(c, b, lo, hi, head, packs)
            _dot_steps(c, b, lo, j, hi, head)
            lo = hi
        return QSeries(self.offset(), c)

    # -- orders at cusps ----------------------------------------------------

    def order_map24(self) -> dict[int, int]:
        """24 times the width-normalized order at each cusp a/c, by c | N:
        sum_t r_t cusp_step(N, c, t), every term an integer."""
        n = self.level
        return {
            c: sum(r * cusp_step(n, c, t) for t, r in self.exponents.items())
            for c in divisors(n)
        }

    def total_cusp_order(self) -> Fraction:
        """Sum of cusp orders with denominator multiplicity; prime-power level."""
        n = self.level
        if prime_power(n) is None:
            raise ValueError(f"level {n} is not a prime power")
        orders = self.order_map24()
        return Fraction(sum(denominator_multiplicity(n, c) * v for c, v in orders.items()), 24)

    # -- modularity ----------------------------------------------------------

    def _conditions(self, orders: dict[int, int]) -> tuple[tuple[str, bool], ...]:
        """The criteria besides holomorphy at the cusps, in integers, from
        order_map24: its entries at N and 1 are sum t*r_t and
        sum (N/t)*r_t, as cusp_step(N, N, t) = t and cusp_step(N, 1, t) = N/t."""
        w2 = sum(self.exponents.values())
        return (
            ("sum t*r_t = 0 mod 24", orders[self.level] % 24 == 0),
            ("sum (N/t)*r_t = 0 mod 24", orders[1] % 24 == 0),
            ("even integer weight", w2 % 4 == 0),
            ("trivial character", self.trivial_character()),
        )

    def trivial_character(self) -> bool:
        """prod_t t^(r_t) is a rational square exactly when prod_t t^|r_t|
        is an integer square, i.e. when the product of the t with odd r_t is."""
        odd = prod(t for t, r in self.exponents.items() if r % 2)
        return isqrt(odd) ** 2 == odd

    def is_modular(self) -> bool:
        """The verdict of is_modular_on_gamma0()."""
        return self.is_modular_on_gamma0().is_modular

    def is_modular_on_gamma0(self) -> ModularityReport:
        """Holomorphic-modular-form criteria on Gamma0(level), trivial character."""
        orders = self.order_map24()
        return ModularityReport(self.weight(), self._conditions(orders), orders)

    # -- transformations ------------------------------------------------------

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


def _pentagonal_power(r: int, m: int) -> list[int]:
    """g_0..g_(m-1) of P(x)^r, P(x) = prod_{i>=1} (1 - x^i).

    By Euler's pentagonal theorem P_k is (-1)^j at k = j(3j -+ 1)/2 and 0
    elsewhere, so below x^m P has about 1.6 sqrt(m) nonzero terms.  J. C.
    P. Miller's recurrence for a power (Knuth, TAOCP vol. 2, 4.7) comes
    from P * D(P^r) = r D(P) * P^r, D = x d/dx:
    n g_n = sum_{k>=1} ((r+1)k - n) P_k g_(n-k), O(m^1.5) operations in
    all.  The g_n are integers, so every division by n is exact.
    """
    r1 = r + 1
    terms = []  # (k, (r+1) k P_k, P_k) for the pentagonal k, ascending
    j = 1
    while (k := j * (3 * j - 1) // 2) < m:
        p = -1 if j % 2 else 1
        terms += [(k, r1 * k * p, p), (k + j, r1 * (k + j) * p, p)]
        j += 1
    g = [1] + [0] * (m - 1)
    for n in range(1, m):
        s = 0
        for k, a, p in terms:
            if k > n:
                break
            s += (a - n * p) * g[n - k]
        g[n], rem = divmod(s, n)
        if rem:
            raise ArithmeticError(f"Miller's recurrence: {n} does not divide {s}")
    return g


def _dot_steps(c: list, b: list, lo: int, start: int, stop: int, head: list) -> None:
    """Steps start..stop-1 of the block from lo: c_j from the head sum and
    one C-level dot product over the triangle c_lo..c_(j-1)."""
    for j in range(start, stop):
        s = sum(map(mul, c[lo:j], b[j - lo : 0 : -1]), head[j - lo])
        c[j], rem = divmod(s, j)
        if rem:
            raise ArithmeticError(f"log-derivative recurrence: {j} does not divide {s}")


def _packed_run(c: list, b: list, lo: int, hi: int, head: list, packs: dict) -> int:
    """Steps of the block [lo, hi) off one sliding packed accumulator;
    the first step it leaves to the dot products, hi if none.

    The accumulator holds one digit per step still to come, the sum
    j c_j = head_j + sum_{lo <= i < j} c_i b_(j-i) as far as it is known.
    Each step reads the low digit, divides it exactly by j, shifts it off
    and adds c_j * (b_1 + b_2 B + ...), B the digit base: one C-level
    multiply-add.  Digits are biased by half = B/2, as in kernels._pack
    (the n - 1 digits past the block too, so acc stays nonnegative and
    its shifts cheap), and every one is exact while max|head| + max|c| sum_k |b_k| < half.
    The width is fitted to that bound, with max|c| taken to grow by as
    many bits to the end of the block as over the last w known steps; a
    c_j past the bound, or a digit wider than _RUN_DIGIT_BITS, ends the
    run.  The first block has no history, so its first quarter runs by
    dot products before the fit.
    """
    n = hi - lo
    j = lo
    if lo == 1:
        j = 1 + n // 4
        _dot_steps(c, b, 1, 1, j, head)
    w = min(n, j // 2)
    x = max(map(abs, c[j - w : j])).bit_length()
    y = max(map(abs, c[max(0, j - 2 * w) : j - w])).bit_length()
    cb = max(x, y) + max(0, x - y) * (hi - j) // w
    if cb + 2 > _RUN_DIGIT_BITS:  # sb << cb has cb + 1 bits or more, so bits >= cb + 2
        return j
    mh = max(map(abs, head))
    sb = sum(map(abs, b[1:n])) or 1
    width = (mh + (sb << cb)).bit_length() // 8 + 1
    bits = 8 * width
    if bits > _RUN_DIGIT_BITS:
        return j
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    cap = (half - 1 - mh) // sb  # |c| <= cap keeps every digit below half
    bp = _pack(b[:n], width, half, packs, "y")  # b_0 = 0
    acc = _digits(head, 0, width, half) + (_halves(half, width, n - 1) << (bits * n))
    if j > lo:
        # c_lo..c_(j-1), all within cap, were found by dots: add their terms
        acc = (acc + _pack(c[lo:j], width, half) * bp) >> (bits * (j - lo))
    bp >>= bits
    for j in range(j, hi):
        s = (acc & mask) - half
        c[j], rem = divmod(s, j)
        if rem:
            raise ArithmeticError(f"log-derivative recurrence: {j} does not divide {s}")
        if not -cap <= c[j] <= cap:
            return j + 1
        acc = (acc >> bits) + c[j] * bp
    return hi


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
        level = lcm(*exps)
    return EtaQuotient(level, exps)
