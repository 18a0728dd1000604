"""Truncated formal q-series with exact coefficients.

A ``QSeries`` is

    q^(offset/24) * (sum_{n < prec} coeffs[n] * q^n) / den  +  O(q^(offset/24 + prec))

* ``offset`` is an integer shift in 1/24 units: sum t*r_t for an eta
  quotient, 0 for an Eisenstein combination;
* ``coeffs`` are dense numerators on whole q-steps: Python ints, or, at
  a cusp, ``CycNumber``s of one cyclotomic order ``cyc_order`` (offset 0
  in the local variable q_{c,N});
* ``den`` is one positive denominator, in lowest terms against the
  numerators; it is 1 for cyclotomic series, whose coefficients carry
  their own denominators;
* ``prec`` = len(coeffs) counts the known q-steps.  Everything from the
  O-term on is unknown, never assumed zero.

D = q d/dq multiplies c_n by (24n + offset) and den by 24.  A sum aligns
two offsets that agree mod 24 (series on different lattices are
refused).  A product of rational series is one ``kernels.conv_trunc``
call on the numerators.

A cyclotomic series supports products (with a cyclotomic or rational
series), powers e >= 0, negation, valuation, ``leading``, ``coeff`` and
rendering; sums, scalar multiples, D and inversion raise TypeError.  It
keeps, besides its steps, the integer monomials (s, j, n) =
n * q^s * zeta_L^j of all of them over one denominator, in step order:
a cusp expansion hands in the accumulators its scatter built the steps
from, and any other cyclotomic series works them out from its steps on
its first product.  A product reads both operands' monomials (a
rational operand's are its nonzero numerators at j = 0), rescaling the
exponents j only when it lifts to a larger order, adds all their
products into the output steps in Z[zeta_L] with one
``cyclotomic._mul_into`` call, and normalises each nonempty step once;
every empty step is one shared zero.  Normalising makes a step
independent of the common denominator it was summed over.  Cusp
expansions and these products establish the cyclotomic invariant
themselves (one order, den 1, at least one step, normalised steps), so
they build their series through ``QSeries._cyclotomic`` without the
checks of the public constructor.

Precision propagation is pessimistic: a binary operation knows a
coefficient only if both inputs determine it, so results never fabricate
terms beyond the inputs' knowledge.  Stored leading zeros of a factor
are exact, so a product knows the steps they determine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .cyclotomic import CycNumber, Monomial, _mul_into
from .kernels import conv_trunc

__all__ = ["QSeries", "SeriesDomainError"]

Coeff = Union[int, CycNumber]
Scalar = Union[int, Fraction]


class SeriesDomainError(ArithmeticError):
    """Raised for division-by-nonunit, precision-exhausted, lattice-mismatch."""

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {message}" if message else kind)


def _stored_nonzero(c: Coeff) -> bool:
    # cheap representation-level test; used only to skip work, never to
    # decide vanishing (valuation uses the exact test)
    return c != 0 if isinstance(c, int) else bool(c.terms)


class QSeries:
    """Immutable q^(offset/24) * sum c_n q^n / den + O(q^(offset/24 + prec))."""

    __slots__ = ("offset", "coeffs", "den", "cyc_order", "_monos")

    def __init__(self, offset: int, coeffs: Iterable[Coeff], den: int = 1):
        vec = tuple(coeffs)
        if not vec:
            raise SeriesDomainError("precision-exhausted", "series with no known window")
        if den < 1:
            raise ValueError("denominator must be >= 1")
        # every coefficient a CycNumber of one order over den 1, or none is
        order = vec[0].order if isinstance(vec[0], CycNumber) else None
        if order is None:
            mixed = CycNumber in map(type, vec)
        else:
            mixed = den != 1 or any(not isinstance(c, CycNumber) or c.order != order for c in vec)
        if mixed:
            raise ValueError("cyclotomic coefficients need one order and denominator 1")
        if den != 1:
            g = gcd(den, *vec)
            if g != 1:
                den //= g
                vec = tuple(c // g for c in vec)
        self.offset = offset
        self.coeffs = vec
        self.den = den
        self.cyc_order = order
        self._monos = None

    @classmethod
    def _cyclotomic(
        cls,
        offset: int,
        order: int,
        coeffs: list[CycNumber],
        monos: tuple[list[Monomial], int] | None = None,
    ) -> "QSeries":
        """A cyclotomic series whose caller guarantees what ``__init__``
        checks: at least one step, each a normalised ``CycNumber`` of
        this order, over den 1.  monos, when given, is (the monomials
        of every step in step order, their one denominator): the steps'
        numerators up to one common factor, zeros allowed."""
        x = object.__new__(cls)
        x.offset, x.coeffs, x.den, x.cyc_order, x._monos = offset, tuple(coeffs), 1, order, monos
        return x

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def _monomials(self, order: int, n: int) -> tuple[list[Monomial], int]:
        """Monomials (s, j, num) in step order: num * q^s * zeta_order^j
        over one denominator D.  A rational series lists its nonzero
        steps s < n at j = 0 over its den; a cyclotomic one lists every
        step (the product kernel skips those at or past n) from the
        monomials it keeps, worked out from its steps on the first call."""
        if self.cyc_order is None:
            return [(s, 0, c) for s, c in enumerate(self.coeffs[:n]) if c], self.den
        if self._monos is None:
            den = lcm(*(c.den for c in self.coeffs))
            self._monos = [
                (s, j, v * (den // c.den)) for s, c in enumerate(self.coeffs) for j, v in c.terms.items()
            ], den
        monos, den = self._monos
        if order != self.cyc_order:
            step = order // self.cyc_order
            monos = [(s, j * step, v) for s, j, v in monos]
        return monos, den

    def _rational_only(self, op: str) -> None:
        if self.cyc_order is not None:
            raise TypeError(f"{op} is defined for rational series only")

    def _lead(self) -> int:
        """Stored leading zeros: exactly known, at most prec - 1 of them."""
        for i, c in enumerate(self.coeffs):
            if _stored_nonzero(c):
                return i
        return len(self.coeffs) - 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries) or self.cyc_order or other.cyc_order:
            return NotImplemented  # sums are for rational series only
        x, y = self, other
        if (x.offset - y.offset) % 24:
            raise SeriesDomainError(
                "lattice-mismatch", f"offsets {x.offset} and {y.offset} differ mod 24"
            )
        offset = min(x.offset, y.offset)
        sx, sy = (x.offset - offset) // 24, (y.offset - offset) // 24
        n = min(sx + x.prec, sy + y.prec)
        den = lcm(x.den, y.den)
        xs, ys = _scaled(x.coeffs, den // x.den), _scaled(y.coeffs, den // y.den)
        # each operand placed on the window [offset, offset + 24n)
        xs = [0] * min(sx, n) + list(xs[: max(n - sx, 0)])
        ys = [0] * min(sy, n) + list(ys[: max(n - sy, 0)])
        return QSeries(offset, [a + b for a, b in zip(xs, ys)], den)

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, v: Scalar) -> "QSeries":
        self._rational_only("a scalar multiple")
        v = Fraction(v)
        num = v.numerator
        return QSeries(self.offset, [c * num for c in self.coeffs], self.den * v.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = self, other
        offset = x.offset + y.offset
        n = min(x.prec + y._lead(), y.prec + x._lead())
        if x.cyc_order is None and y.cyc_order is None:
            vec = conv_trunc(x.coeffs, y.coeffs, n)
            vec += [0] * (n - len(vec))
            return QSeries(offset, vec, x.den * y.den)
        order = lcm(x.cyc_order or 1, y.cyc_order or 1)
        (xs, dx), (ys, dy) = x._monomials(order, n), y._monomials(order, n)
        acc: list[dict[int, int]] = [{} for _ in range(n)]
        _mul_into(acc, xs, ys, order)
        den = dx * dy
        zero = CycNumber.zero(order)
        return QSeries._cyclotomic(
            offset, order, [CycNumber._normal(order, a, den) if a else zero for a in acc]
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QSeries":
        if e == 0:
            return QSeries(0, [1] + [0] * (self.prec - 1))
        if e < 0:
            return self.inverse() ** (-e)
        out, base, k = None, self, e
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self) -> "QSeries":
        """Reciprocal; the leading coefficient must be invertible."""
        self._rational_only("inverse")
        v = self.valuation()
        if v is None:
            raise SeriesDomainError("division-by-nonunit", "inverse of zero-to-precision series")
        cs = [self.coeff(n) for n in range(v, self.prec)]
        inv0 = 1 / cs[0]
        out = [inv0]
        for n in range(1, len(cs)):
            out.append(-inv0 * sum(cs[k] * out[n - k] for k in range(1, n + 1)))
        offset = -(self.offset + 24 * v)
        den = lcm(*(b.denominator for b in out))
        return QSeries(offset, [b.numerator * (den // b.denominator) for b in out], den)

    # -- calculus and inspection ----------------------------------------

    def ramanujan_d(self) -> "QSeries":
        """D = q d/dq: c_n gains the factor (24n + offset)/24."""
        self._rational_only("D")
        a = self.offset
        return QSeries(a, [c * (a + 24 * n) for n, c in enumerate(self.coeffs)], 24 * self.den)

    def valuation(self) -> int | None:
        """Least step n with exactly nonzero coefficient (of q^(offset/24 + n)).

        Returns None when the series is zero to its known precision.
        CycNumber coefficients are decided by the exact cyclotomic test.
        """
        if self.cyc_order is None:
            return next((n for n, c in enumerate(self.coeffs) if c), None)
        return next((n for n, c in enumerate(self.coeffs) if c.terms and not c.is_zero()), None)

    def is_zero_to_prec(self) -> bool:
        return self.valuation() is None

    def leading(self) -> tuple[int, Union[Fraction, CycNumber]]:
        v = self.valuation()
        if v is None:
            raise SeriesDomainError("precision-exhausted", "no nonzero coefficient below prec")
        return v, self.coeff(v)

    def coeff(self, n: int) -> Union[Fraction, CycNumber]:
        """Coefficient of q^(offset/24 + n); step n must be known."""
        if n >= self.prec:
            raise SeriesDomainError("precision-exhausted", f"step {n} >= prec {self.prec}")
        if n < 0:
            return Fraction(0) if self.cyc_order is None else CycNumber.zero(self.cyc_order)
        c = self.coeffs[n]
        return c if self.cyc_order is not None else Fraction(c, self.den)

    # -- rendering -------------------------------------------------------

    def render_text(self, var: str = "q") -> str:
        parts: list[str] = []
        for n, c in enumerate(self.coeffs):
            if self.cyc_order is not None:
                if not c.terms or c.is_zero():
                    continue
                cs = f"({c.render()})"
            elif not c:
                continue
            else:
                cs = str(c) if self.den == 1 else str(Fraction(c, self.den))
            e = self.offset + 24 * n
            parts.append(cs if e == 0 else f"{cs}*{_power(var, e)}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({_power(var, self.offset + 24 * self.prec)})"

    def to_json_triples(self, scale: int = 24) -> list[list[int]]:
        """Nonzero rational coefficients as [numerator, denominator,
        exponent], the exponent in 1/scale units (scale 1 needs offset = 0
        mod 24)."""
        self._rational_only("JSON triples")
        if (self.offset * scale) % 24:
            raise ValueError(f"offset {self.offset}/24 is not a multiple of 1/{scale}")
        offset, den = self.offset, self.den
        if den == 1:
            return [[c, 1, (offset + 24 * n) * scale // 24] for n, c in enumerate(self.coeffs) if c]
        out = []
        for n, c in enumerate(self.coeffs):
            if c:
                g = gcd(c, den)
                out.append([c // g, den // g, (offset + 24 * n) * scale // 24])
        return out

    def __repr__(self):
        shown = self.render_text()
        if len(shown) > 120:
            shown = shown[:117] + "..."
        return f"QSeries({shown})"


def _scaled(cs: tuple, factor: int):
    return cs if factor == 1 else [c * factor for c in cs]


def _power(var: str, e: int) -> str:
    """var^(e/24) with the exponent in lowest terms."""
    g = gcd(abs(e), 24)
    num, den = e // g, 24 // g
    if den > 1:
        return f"{var}^({num}/{den})"
    return var if num == 1 else f"{var}^{num}"
