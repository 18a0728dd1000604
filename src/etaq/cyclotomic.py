"""Exact cyclotomic numbers: the steps of a cusp series in Q(zeta_L).

An element is stored on the non-reduced group-ring basis
{zeta_L^j : 0 <= j < L}, i.e. as a polynomial in zeta_L taken modulo
x^L - 1, written as sparse integer numerators over one positive common
denominator: (1/den) * sum_j n_j zeta_L^j with only the nonzero n_j
kept.  The representation is not unique, but zero is decidable: the
element vanishes iff the numerator polynomial is divisible by the L-th
cyclotomic polynomial Phi_L.  Phi_L is monic with integer coefficients,
so that division is done exactly in Z, by its lower terms (``_phi_tail``,
one per order).  The zeta_L^j, j < deg Phi_L, are a basis of Q(zeta_L)
(Washington, Introduction to Cyclotomic Fields, ch. 2), so numerators
all below deg Phi_L are nonzero undivided.  This is the whole mechanism
that certifies vanishing cusp coefficients, all in exact arithmetic.

Only the cusp code (``etaq.cusps``) imports this module, and only it
builds a ``CycNumber``: each step of a cusp series, through
``CycNumber._steps``, which keeps the one denominator the step was
summed over, since every reader (``coeffs``, ``reduced``, ``render``)
divides through ``Fraction`` anyway and the zero test ignores it.  A
``CycNumber`` is read, not computed with: it has no public constructor,
sum or difference.  It keeps an exact ``==``, a product of two numbers
of one order (one ``kernels._mul_into`` call, the sparse product that
the cusp series in ``etaq.series`` share) and an inverse, the product
of the element's other Galois conjugates over its norm, a rational
number.  Phi_L itself is built from the Moebius product over 1 - x^d by
in-place integer updates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

from .arith import divisors, factorize, totient
from .kernels import _mul_into

__all__ = ["CycNumber", "cyclotomic_polynomial"]

_ZERO = Fraction(0)


@cache
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of Phi_order, constant term first, built once.

    For L > 1, Phi_L = prod_{d | L} (1 - x^d)^mu(L/d) as a power series,
    and it has degree phi(L), so the product truncated past x^phi(L) is
    exact.  A factor 1 - x^d is a downward in-place difference
    a_i -= a_(i-d); dividing by it is the upward stride-d prefix sum
    a_i += a_(i-d).  Neither leaves the integers.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return (-1, 1)
    deg = totient(order)
    poly = [1] + [0] * deg
    for d in divisors(order):
        mu = _mobius(order // d)
        if mu == 1:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
        elif mu == -1:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
    return tuple(poly)


@cache
def _phi_tail(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(deg Phi_order, its nonzero (i, p_i) below the top), built once."""
    *tail, _ = cyclotomic_polynomial(order)
    return len(tail), tuple((i, p) for i, p in enumerate(tail) if p)


def _mobius(n: int) -> int:
    fac = factorize(n)
    if any(m > 1 for m in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


class CycNumber:
    """Element of Q(zeta_order) as (1/den) * sum terms[j] * zeta_order^j.

    ``terms`` maps exponents 0 <= j < order to nonzero integer
    numerators and ``den`` is positive; they need not be coprime.  Both
    are read-only, and only the cusp code builds the number.
    """

    __slots__ = ("order", "terms", "den")

    @classmethod
    def _normal(cls, order: int, terms: dict[int, int], den: int) -> "CycNumber":
        """Drop zero numerators and divide out gcd(den, numerators)."""
        if 0 in terms.values():
            terms = {j: n for j, n in terms.items() if n}
        if not terms:
            den = 1
        elif den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {j: n // g for j, n in terms.items()}
        x = object.__new__(cls)
        x.order, x.terms, x.den = order, terms, den
        return x

    @classmethod
    def _steps(
        cls, order: int, accs: list[dict[int, int] | None], den: int
    ) -> tuple["CycNumber", ...]:
        """accs[s] / den for each step s, all over den, keeping each dict
        unless it holds a zero numerator, which is dropped; no gcd is
        divided out.  Empty and all-zero steps are the one zero."""
        zero, new, out = cls.zero(order), object.__new__, []
        for terms in accs:
            if terms and 0 in terms.values():
                terms = {j: n for j, n in terms.items() if n}
            x = zero
            if terms:
                x = new(cls)
                x.order, x.terms, x.den = order, terms, den
            out.append(x)
        return tuple(out)

    @classmethod
    @cache
    def zero(cls, order: int) -> "CycNumber":
        """The zero of Q(zeta_order), one shared instance per order."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls._normal(order, {}, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense coordinates c_0 .. c_(order-1) on the basis zeta_order^j."""
        vec = [_ZERO] * self.order
        for j, n in self.terms.items():
            vec[j] = Fraction(n, self.den)
        return tuple(vec)

    def _reduced_numerators(self) -> list[int]:
        """den * (remainder mod Phi_order), degree < deg Phi, in Z.

        Phi_order is monic with integer coefficients, so the division
        never leaves the integers.
        """
        deg, tail = _phi_tail(self.order)
        rem = [0] * self.order
        for j, n in self.terms.items():
            rem[j] = n
        for i in range(len(rem) - 1, deg - 1, -1):
            q = rem[i]
            if q:
                shift = i - deg
                for j, p in tail:
                    rem[shift + j] -= q * p
        return rem[:deg]

    def reduced(self) -> tuple[Fraction, ...]:
        """Canonical coordinates: remainder mod Phi_order, degree < deg Phi.

        Two representatives of the same field element reduce to the same
        tuple, so this doubles as a normal form.
        """
        den = self.den
        return tuple(Fraction(n, den) if n else _ZERO for n in self._reduced_numerators())

    def is_zero(self) -> bool:
        """Exact test: the representative is divisible by Phi_order, which
        it is not if its numerators all sit below deg Phi_order (a basis)."""
        if not self.terms:
            return True
        if max(self.terms) < _phi_tail(self.order)[0]:
            return False
        return not any(self._reduced_numerators())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        """Exact: reduced numerators, each side times the other's den."""
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise TypeError(f"== needs one order, got {self.order} and {other.order}")
            a, b = self._reduced_numerators(), other._reduced_numerators()
            return all(x * other.den == y * self.den for x, y in zip(a, b))
        if isinstance(other, (int, Fraction)):
            head, *rest = self._reduced_numerators()
            return not any(rest) and head * other.denominator == other.numerator * self.den
        return NotImplemented

    def __mul__(self, other):
        if not isinstance(other, CycNumber):
            return NotImplemented
        L = self.order
        if other.order != L:
            raise TypeError(f"a product needs one order, got {L} and {other.order}")
        xs = [(0, j, n) for j, n in self.terms.items()]
        ys = [(0, j, n) for j, n in other.terms.items()]
        out: list[dict[int, int]] = [{}]
        _mul_into(out, xs, ys, L)
        return CycNumber._normal(L, out[0], self.den * other.den)

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse through the Galois norm, reduced mod Phi_order.

        With sigma_a: zeta -> zeta^a for a in (Z/L)^*, the product P of
        sigma_a(x) over a != 1 makes x * P = N(x) rational, so
        x^-1 = P / N(x).  Each partial product is reduced mod Phi_order,
        so the result has degree < phi(order).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L, normal = self.order, CycNumber._normal
        cand = normal(L, {0: 1}, 1)
        for a in range(2, L):
            if gcd(a, L) == 1:
                cand = cand * normal(L, {a * j % L: n for j, n in self.terms.items()}, self.den)
                cand = normal(L, dict(enumerate(cand._reduced_numerators())), cand.den)
        # x * P = N(x) is rational: only its first reduced numerator is nonzero
        norm = self * cand
        r = Fraction(norm.den, norm._reduced_numerators()[0])  # 1 / N(x)
        num, den = r.numerator, r.denominator
        cand = normal(L, {j: n * num for j, n in cand.terms.items()}, cand.den * den)
        if not cand * self == 1:
            raise AssertionError("cyclotomic inversion failed")
        return cand

    def render(self) -> str:
        """Canonical text form over reduced coordinates, e.g. '1/2 - 3*zeta8^2'."""
        red = self.reduced()
        parts: list[str] = []
        for j, c in enumerate(red):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                pw = f"zeta{self.order}" + (f"^{j}" if j > 1 else "")
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycNumber({self.order}, {self.render()!r})"

