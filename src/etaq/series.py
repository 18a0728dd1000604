"""Truncated formal q-series with exact coefficients.

A ``QSeries`` is

    q^(offset/24) * (sum_{n < prec} coeffs[n] * q^n) / den  +  O(q^(offset/24 + prec))

* ``offset`` is an integer shift in 1/24 units: sum t*r_t for an eta
  quotient, 0 for an Eisenstein combination;
* ``coeffs`` are dense numerators on whole q-steps: Python ints, or, at
  a cusp, ``CycNumber``s of one cyclotomic order ``cyc_order`` (offset 0
  in the local variable q_{c,N}, see below);
* ``den`` is one positive denominator, in lowest terms against the
  numerators; it is 1 for cyclotomic series, whose coefficients carry
  their own denominators;
* ``prec`` = len(coeffs) counts the known q-steps.  Everything from the
  O-term on is unknown, never assumed zero.

D = q d/dq multiplies c_n by (24n + offset) and den by 24.  A sum aligns
two offsets that agree mod 24 (series on different lattices are
refused).  A product of rational series is one ``kernels.conv_trunc``
call on the numerators.

A cusp series (cyclotomic coefficients) has one constructor,
``QSeries._cyclotomic(num, order, accs, den)``: accs[s] = {j: n} holds
the integer numerators n of zeta_L^j in step s over the one
denominator den (None or {} for an empty step), and num is the
coefficient class, ``CycNumber``, which ``etaq.cusps`` hands in.  Each
step of ``.coeffs`` is num's wrap of accs[s] over den itself, with no
per-step gcd (``CycNumber._steps``); the series keeps (accs, den) and
lists them as monomials (s, j, n) = n * q^s * zeta_L^j on its first
product.  The numerators come from the cusp map's window or from a
product; the public constructor takes ints only.  A cusp series is
multiplied only by a cusp series of the same order, the same local
variable q_{c,N}: one ``kernels._mul_into`` call adds all products of
the operands' monomials into the output steps over dx * dy.  It has
powers e >= 0 (x ** 0 is the one of x's order), valuation,
``leading``, ``coeff`` and rendering; negation, sums, scalar multiples,
D and inversion raise TypeError, as does a product with a rational
series or a cusp series of another order.  Every step is built by num,
so this module never imports ``etaq.cyclotomic``, and is only read: its
``terms`` to skip empty steps, ``is_zero`` and ``render``; all step
arithmetic happens on the numerators.

Precision propagation is pessimistic: a binary operation knows a
coefficient only if both inputs determine it, so results never fabricate
terms beyond the inputs' knowledge.  Stored leading zeros of a factor
are exact, so a product knows the steps they determine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Union

from .kernels import Monomial, _mul_into, conv_trunc

if TYPE_CHECKING:
    from .cyclotomic import CycNumber

    Coeff = Union[int, CycNumber]

__all__ = ["QSeries", "SeriesDomainError"]

Scalar = Union[int, Fraction]


class SeriesDomainError(ArithmeticError):
    """Raised for division-by-nonunit, precision-exhausted, lattice-mismatch."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


def _stored_nonzero(c: Coeff) -> bool:
    # cheap representation-level test; used only to skip work, never to
    # decide vanishing (valuation uses the exact test)
    return c != 0 if isinstance(c, int) else bool(c.terms)


class QSeries:
    """Immutable q^(offset/24) * sum c_n q^n / den + O(q^(offset/24 + prec))."""

    __slots__ = ("offset", "coeffs", "den", "cyc_order", "_num", "_accs", "_monos")

    def __init__(self, offset: int, coeffs: Iterable[int], den: int = 1):
        vec = tuple(coeffs)
        if not vec:
            raise SeriesDomainError("precision-exhausted", "series with no known window")
        if den < 1:
            raise ValueError("denominator must be >= 1")
        if not set(map(type, vec)) <= {int}:
            raise ValueError("ints only: cusp series are built by QSeries._cyclotomic")
        if den != 1:
            g = gcd(den, *vec)
            if g != 1:
                den //= g
                vec = tuple(c // g for c in vec)
        self.offset = offset
        self.coeffs = vec
        self.den = den
        self.cyc_order = None

    @classmethod
    def _cyclotomic(
        cls, num: type[CycNumber], order: int, accs: list[dict[int, int] | None], den: int
    ) -> "QSeries":
        """The cusp series with step s = accs[s] / den in Z[zeta_order]
        (None or {} for an empty step), each step a ``num``; accs holds
        at least one step and is never changed afterwards."""
        x = object.__new__(cls)
        x.offset, x.den, x.cyc_order, x._num = 0, 1, order, num
        x._accs, x._monos = (accs, den), None
        x.coeffs = num._steps(order, accs, den)
        return x

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def _monomials(self) -> tuple[list[Monomial], int]:
        """A cusp series' monomials (s, j, n) in step order over its one
        denominator, listed from its numerators on the first call."""
        if self._monos is None:
            accs, den = self._accs
            self._monos = [(s, j, n) for s, a in enumerate(accs) if a for j, n in a.items()], den
        return self._monos

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
        self._rational_only("negation")
        return QSeries(self.offset, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._rational_only("a difference")
        other._rational_only("a difference")
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
        order = x.cyc_order
        if order != y.cyc_order:
            raise TypeError("a product needs two rational series or two cusp series of one order")
        n = min(x.prec + y._lead(), y.prec + x._lead())
        if order is None:
            vec = conv_trunc(x.coeffs, y.coeffs, n)
            vec += [0] * (n - len(vec))
            return QSeries(x.offset + y.offset, vec, x.den * y.den)
        (xs, dx), (ys, dy) = x._monomials(), y._monomials()
        acc: list[dict[int, int]] = [{} for _ in range(n)]
        _mul_into(acc, xs, ys, order)
        return QSeries._cyclotomic(x._num, order, acc, dx * dy)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QSeries":
        if e == 0:
            if self.cyc_order is not None:
                return QSeries._cyclotomic(
                    self._num, self.cyc_order, [{0: 1}] + [None] * (self.prec - 1), 1
                )
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
            return Fraction(0) if self.cyc_order is None else self._num.zero(self.cyc_order)
        c = self.coeffs[n]
        return c if self.cyc_order is not None else Fraction(c, self.den)

    # -- rendering -------------------------------------------------------

    def render_text(self, var: str = "q") -> str:
        # every exponent (offset + 24n)/24 has the denominator den =
        # 24/gcd(offset, 24) in lowest terms and the numerator base + den*n,
        # so each term is written as _power writes it, with no gcd per term;
        # exponents 0 and 1 are written without a power
        g = gcd(self.offset, 24)
        den, base = 24 // g, self.offset // g
        pre, post = (f"*{var}^(", f"/{den})") if den > 1 else (f"*{var}^", "")
        short = {} if den > 1 else {-base: "", 1 - base: f"*{var}"}
        cyc, d = self.cyc_order is not None, self.den
        parts: list[str] = []
        for n, c in enumerate(self.coeffs):
            if cyc:
                if not c.terms or c.is_zero():
                    continue
                cs = f"({c.render()})"
            elif not c:
                continue
            else:
                cs = str(c) if d == 1 else str(Fraction(c, d))
            parts.append(cs + short[n] if n in short else f"{cs}{pre}{base + den * n}{post}")
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
