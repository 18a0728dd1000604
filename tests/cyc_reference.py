"""Reference: the ``CycNumber`` arithmetic that etaq kept before its
cyclotomic numbers became read-only steps of cusp series.

The class body below is the former ``etaq.cyclotomic.CycNumber``
arithmetic verbatim: the public constructor, ``from_rational``,
``root_of_unity``, ``lift``, sums, differences, negation, products with
scalars and across orders (by the lcm lift), ``==`` across orders,
``rational_value`` and the inverse built on them.  It subclasses the
library class for what the library still has (the stored form,
``_normal``, ``_steps``, ``zero``, the reduction mod Phi_L, the zero
test and rendering), so ``CycNumber._steps`` and ``QSeries._cyclotomic``
called with this class build reference numbers.  ``reference`` turns a
number the cusp code built into one, and ``library`` turns one back.
The tests build their inputs and compare through it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from etaq import cyclotomic
from etaq.kernels import _mul_into

Scalar = Union[int, Fraction]


class CycNumber(cyclotomic.CycNumber):
    """Element of Q(zeta_order) with the former arithmetic."""

    __slots__ = ()

    def __init__(self, order: int, coeffs: Union[Mapping[int, Scalar], Iterable[Scalar]]):
        if order < 1:
            raise ValueError("order must be >= 1")
        items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs)
        acc: dict[int, Scalar] = {}
        for j, c in items:
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            if c:
                j %= order
                acc[j] = acc.get(j, 0) + c
        den = lcm(*(c.denominator for c in acc.values()))
        # den is the lcm of denominators in lowest terms, so the
        # numerators below already share no factor with it
        self.order = order
        self.terms = {j: c.numerator * (den // c.denominator) for j, c in acc.items() if c}
        self.den = den

    @classmethod
    def from_rational(cls, value: Scalar, order: int = 1) -> "CycNumber":
        if order < 1:
            raise ValueError("order must be >= 1")
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return cls._normal(order, {0: value.numerator}, value.denominator)

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "CycNumber":
        """zeta_order^exponent."""
        return cls(order, {exponent % order: 1})

    def lift(self, new_order: int) -> "CycNumber":
        """Rewrite in Q(zeta_new_order); new_order must be a multiple."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"cannot lift order {self.order} to {new_order}")
        step = new_order // self.order
        return CycNumber._normal(new_order, {j * step: n for j, n in self.terms.items()}, self.den)

    @staticmethod
    def _coerce(x: "CycNumber | Scalar", order: int) -> "CycNumber":
        if isinstance(x, CycNumber):
            return x
        return CycNumber.from_rational(x, order)

    def _common(self, other: "CycNumber | Scalar") -> tuple["CycNumber", "CycNumber"]:
        o = self._coerce(other, 1)
        if o.order == self.order:
            return self, o
        L = lcm(self.order, o.order)
        return self.lift(L), o.lift(L)

    def __add__(self, other):
        if not isinstance(other, (CycNumber, int, Fraction)):
            return NotImplemented
        a, b = self._common(other)
        if not a.terms:
            return b
        if not b.terms:
            return a
        da, db = a.den, b.den
        if da == db:
            out = dict(a.terms)
            for j, n in b.terms.items():
                out[j] = out.get(j, 0) + n
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = {j: n * fa for j, n in a.terms.items()}
            for j, n in b.terms.items():
                out[j] = out.get(j, 0) + n * fb
            da *= fa
        return CycNumber._normal(a.order, out, da)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber._normal(self.order, {j: -n for j, n in self.terms.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (CycNumber, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other, 1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return CycNumber._normal(
                self.order, {j: n * num for j, n in self.terms.items()}, self.den * den
            )
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._common(other)
        xs = [(0, j, n) for j, n in a.terms.items()]
        ys = [(0, j, n) for j, n in b.terms.items()]
        out: list[dict[int, int]] = [{}]
        _mul_into(out, xs, ys, a.order)
        return CycNumber._normal(a.order, out[0], a.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (CycNumber, int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def rational_value(self) -> Fraction | None:
        """The element as a Fraction if it is rational, else None."""
        red = self._reduced_numerators()
        if any(red[1:]):
            return None
        return Fraction(red[0], self.den)

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse through the Galois norm, reduced mod Phi_order.

        With sigma_a: zeta -> zeta^a for a in (Z/L)^*, the product P of
        sigma_a(x) over a != 1 makes x * P = N(x) rational, so
        x^-1 = P / N(x).  Each partial product is reduced mod Phi_order,
        so the result has degree < phi(order).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L = self.order
        cand = CycNumber.from_rational(1, L)
        for a in range(2, L):
            if gcd(a, L) == 1:
                conj = CycNumber._normal(L, {a * j % L: n for j, n in self.terms.items()}, self.den)
                cand = cand * conj
                red = cand._reduced_numerators()
                cand = CycNumber._normal(L, {j: n for j, n in enumerate(red) if n}, cand.den)
        norm = (self * cand).rational_value()
        cand = cand * (1 / norm)
        if not (cand * self - 1).is_zero():
            raise AssertionError("cyclotomic inversion failed")
        return cand


def reference(x: cyclotomic.CycNumber) -> CycNumber:
    """The number x, which the cusp code built, as a reference number."""
    return CycNumber._normal(x.order, x.terms, x.den)


def library(x: CycNumber) -> cyclotomic.CycNumber:
    """The reference number x as a number of etaq's read-only class."""
    return cyclotomic.CycNumber._normal(x.order, x.terms, x.den)
