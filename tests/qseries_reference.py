"""Reference: the scale-24 ``QSeries`` that etaq used before its series
layer stored integer numerators over one denominator.

The module body below is the former ``etaq.series`` verbatim, apart
from absolute imports and ``_mul_coeff_lists``, which multiplies with
one plain loop over the nonzero slots instead of ``etaq.kernels``, so
that the reference does not run the kernel under test.  It keeps one
``Fraction`` per slot on a lattice of step 1/scale, Newton inversion,
and the pentagonal ``eta_series``.  Its
cyclotomic coefficients are ``cyc_reference`` numbers, which carry the
former ``CycNumber`` arithmetic; ``_as_coeff`` turns etaq's read-only
``CycNumber`` into one.  The tests compare the current
``etaq.series.QSeries`` with it.

Original module docstring:

Truncated formal q-series with exact coefficients.

A ``QSeries`` stores coefficients of q^(e/scale) for integer exponents
e in ``offset <= e < prec``; everything at or beyond q^(prec/scale) is
unknown, never assumed zero.  The scale is 24 for eta work (exponents
live in (1/24)Z) and 1 for expansions in an integral local variable at
a cusp.  Coefficients are either ``fractions.Fraction`` or
``CycNumber`` (all of one cyclotomic order); the rational domain embeds
into any cyclotomic one on demand.

Precision propagation is pessimistic: a binary operation knows a
coefficient only if both inputs determine it, so results never fabricate
terms beyond the inputs' knowledge.  Multiplication routes integer
coefficient arrays through ``etaq.kernels``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from cyc_reference import CycNumber, reference
from etaq import cyclotomic

__all__ = ["QSeries", "SeriesDomainError", "eta_series"]

Coeff = Union[Fraction, CycNumber]
Scalar = Union[int, Fraction, CycNumber]

# Rescaling two series to a common exponent lattice is refused beyond
# this bound; it would signal wildly incompatible scales, not math.
_MAX_SCALE = 2_000_000


class SeriesDomainError(ArithmeticError):
    """Raised for division-by-nonunit, precision-exhausted, scale-mismatch."""

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {message}" if message else kind)


def _as_coeff(v: Scalar) -> Coeff:
    # Fractions are immutable, so an existing one is shared, not copied
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, CycNumber):
        return v
    if isinstance(v, cyclotomic.CycNumber):
        return reference(v)
    raise TypeError(f"unsupported coefficient type {type(v).__name__}")


def _stored_nonzero(c: Coeff) -> bool:
    # cheap representation-level test; used only to skip work, never to
    # decide vanishing (valuation uses the exact test)
    if isinstance(c, Fraction):
        return c != 0
    return bool(c.terms)


class QSeries:
    """Immutable truncated series sum c_e q^(e/scale) + O(q^(prec/scale))."""

    __slots__ = ("scale", "offset", "coeffs", "prec", "cyc_order")

    def __init__(self, scale: int, offset: int, coeffs: Iterable[Scalar], prec: int | None = None):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        vec = [_as_coeff(c) for c in coeffs]
        if prec is None:
            prec = offset + len(vec)
        if prec <= offset:
            raise SeriesDomainError("precision-exhausted", "series with no known window")
        if len(vec) < prec - offset:
            vec += [Fraction(0)] * (prec - offset - len(vec))
        elif len(vec) > prec - offset:
            vec = vec[: prec - offset]
        # tighten the offset past exactly-stored leading zeros (keep one slot)
        lead = 0
        while lead < len(vec) - 1 and not _stored_nonzero(vec[lead]):
            lead += 1
        if lead:
            vec = vec[lead:]
            offset += lead
        order = None
        for c in vec:
            if isinstance(c, CycNumber):
                order = c.order if order is None else lcm(order, c.order)
        if order is not None:
            vec = [
                c.lift(order) if isinstance(c, CycNumber) else CycNumber.from_rational(c, order)
                for c in vec
            ]
        self.scale = scale
        self.offset = offset
        self.coeffs = tuple(vec)
        self.prec = prec
        self.cyc_order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, scale: int = 1, prec: int = 1) -> "QSeries":
        return cls(scale, 0, [value], max(prec, 1))

    @classmethod
    def one(cls, scale: int = 1, prec: int = 1) -> "QSeries":
        return cls.constant(1, scale, prec)

    @classmethod
    def monomial(cls, value: Scalar, exponent: int, scale: int = 1, prec: int | None = None) -> "QSeries":
        return cls(scale, exponent, [value], prec)

    # -- scale handling ------------------------------------------------

    def to_scale(self, new_scale: int) -> "QSeries":
        """Same series on a finer exponent lattice; new_scale % scale == 0."""
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise SeriesDomainError("scale-mismatch", f"{self.scale} does not divide {new_scale}")
        stride = new_scale // self.scale
        vec: list[Coeff] = [Fraction(0)] * (len(self.coeffs) * stride)
        for i, c in enumerate(self.coeffs):
            vec[i * stride] = c
        return QSeries(new_scale, self.offset * stride, vec, self.prec * stride)

    def _common_scale(self, other: "QSeries") -> tuple["QSeries", "QSeries"]:
        s = lcm(self.scale, other.scale)
        if s > _MAX_SCALE:
            raise SeriesDomainError("scale-mismatch", f"common scale {s} exceeds bound")
        return self.to_scale(s), other.to_scale(s)

    def substitute_power(self, t: int) -> "QSeries":
        """q -> q^t on the same scale (exponents multiplied by t)."""
        if t < 1:
            raise ValueError("substitution power must be >= 1")
        if t == 1:
            return self
        vec: list[Coeff] = [Fraction(0)] * ((len(self.coeffs) - 1) * t + 1)
        for i, c in enumerate(self.coeffs):
            vec[i * t] = c
        return QSeries(self.scale, self.offset * t, vec, self.prec * t)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = QSeries.constant(other, self.scale, self.prec)
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = self._common_scale(other)
        prec = min(x.prec, y.prec)
        offset = min(x.offset, y.offset)
        if prec <= offset:
            raise SeriesDomainError("precision-exhausted", "operands share no known window")
        vec: list[Coeff] = [Fraction(0)] * (prec - offset)
        for i, c in enumerate(x.coeffs):
            e = x.offset + i
            if e < prec:
                vec[e - offset] = vec[e - offset] + c
        for i, c in enumerate(y.coeffs):
            e = y.offset + i
            if e < prec:
                vec[e - offset] = vec[e - offset] + c
        return QSeries(x.scale, offset, vec, prec)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.scale, self.offset, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            other = QSeries.constant(other, self.scale, self.prec)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, v: Scalar) -> "QSeries":
        c = _as_coeff(v)
        return QSeries(self.scale, self.offset, [c * x for x in self.coeffs], self.prec)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNumber)):
            return self.scalar_mul(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = self._common_scale(other)
        offset = x.offset + y.offset
        prec = min(x.prec + y.offset, y.prec + x.offset)
        nout = prec - offset  # == min(len(x.coeffs), len(y.coeffs))
        vec = _mul_coeff_lists(list(x.coeffs), list(y.coeffs), nout)
        return QSeries(x.scale, offset, vec, prec)

    __rmul__ = __mul__

    def __truediv__(self, v: Scalar):
        c = _as_coeff(v)
        if isinstance(c, Fraction):
            if c == 0:
                raise ZeroDivisionError("division of series by zero scalar")
            return self.scalar_mul(Fraction(1) / c)
        return self.scalar_mul(c.inverse())

    def __pow__(self, e: int) -> "QSeries":
        if e == 0:
            return QSeries.one(self.scale, max(self.prec - self.offset, 1))
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
        v = self.valuation()
        if v is None:
            raise SeriesDomainError("division-by-nonunit", "inverse of zero-to-precision series")
        lead_idx = v - self.offset
        rel = len(self.coeffs) - lead_idx
        cs = list(self.coeffs[lead_idx:])
        c0 = cs[0]
        if isinstance(c0, Fraction):
            inv0: Coeff = Fraction(1) / c0
        else:
            inv0 = c0.inverse()
        norm = [inv0 * c for c in cs]
        inv_norm = _inv_unit_coeffs(norm, rel)
        vec = [inv0 * c for c in inv_norm]
        return QSeries(self.scale, -v, vec, -v + rel)

    # -- calculus and inspection ----------------------------------------

    def ramanujan_d(self) -> "QSeries":
        """D = q d/dq: the coefficient of q^(e/scale) is scaled by e/scale."""
        vec = [c * Fraction(self.offset + i, self.scale) for i, c in enumerate(self.coeffs)]
        return QSeries(self.scale, self.offset, vec, self.prec)

    def valuation(self) -> int | None:
        """Least exponent (1/scale units) with exactly nonzero coefficient.

        Returns None when the series is zero to its known precision.
        CycNumber coefficients are decided by the exact cyclotomic test.
        """
        for i, c in enumerate(self.coeffs):
            nonzero = (c != 0) if isinstance(c, Fraction) else not c.is_zero()
            if nonzero:
                return self.offset + i
        return None

    def is_zero_to_prec(self) -> bool:
        return self.valuation() is None

    def leading(self) -> tuple[int, Coeff]:
        v = self.valuation()
        if v is None:
            raise SeriesDomainError("precision-exhausted", "no nonzero coefficient below prec")
        return v, self.coeffs[v - self.offset]

    def coeff(self, exponent: int) -> Coeff:
        """Coefficient of q^(exponent/scale); exponent must be known."""
        if exponent >= self.prec:
            raise SeriesDomainError("precision-exhausted", f"exponent {exponent} >= prec {self.prec}")
        if exponent < self.offset:
            return Fraction(0)
        return self.coeffs[exponent - self.offset]

    def coeff_q(self, n: int) -> Coeff:
        """Coefficient of q^n (integral exponent at any scale)."""
        return self.coeff(n * self.scale)

    def truncate(self, prec: int) -> "QSeries":
        if prec >= self.prec:
            return self
        return QSeries(self.scale, self.offset, self.coeffs[: prec - self.offset], prec)

    def agrees_with(self, other: "QSeries") -> bool:
        """Exact coefficient agreement over the shared known window."""
        return (self - other).is_zero_to_prec()

    # -- rendering -------------------------------------------------------

    def render_text(self, var: str = "q") -> str:
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not _stored_nonzero(c):
                continue
            e = self.offset + i
            cs = str(c) if isinstance(c, Fraction) else f"({c.render()})"
            parts.append(cs if e == 0 else f"{cs}*{_power(var, e, self.scale)}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({_power(var, self.prec, self.scale)})"

    def to_json_triples(self) -> list[list[int]]:
        """Nonzero rational coefficients as [numerator, denominator, exponent]."""
        if self.cyc_order is not None:
            raise TypeError("JSON triples are defined for rational series only")
        out = []
        for i, c in enumerate(self.coeffs):
            if c != 0:
                out.append([c.numerator, c.denominator, self.offset + i])
        return out

    def __repr__(self):
        shown = self.render_text()
        if len(shown) > 120:
            shown = shown[:117] + "..."
        return f"QSeries(scale={self.scale}, {shown})"


def _power(var: str, e: int, scale: int) -> str:
    """var^(e/scale) with the exponent in lowest terms."""
    g = gcd(abs(e), scale)
    num, den = e // g, scale // g
    if den > 1:
        return f"{var}^({num}/{den})"
    return var if num == 1 else f"{var}^{num}"


def _mul_coeff_lists(xs: list[Coeff], ys: list[Coeff], nout: int) -> list[Coeff]:
    # one double loop over the nonzero slots for both coefficient
    # domains, so that the reference runs no etaq kernel
    if nout <= 0:
        raise SeriesDomainError("precision-exhausted", "empty product window")
    order = None
    for c in xs + ys:
        if isinstance(c, CycNumber):
            order = c.order if order is None else lcm(order, c.order)
    zero: Coeff = Fraction(0) if order is None else CycNumber.zero(order)
    out: list[Coeff] = [zero] * nout
    for i, xc in enumerate(xs[:nout]):
        if _stored_nonzero(xc):
            for j, yc in enumerate(ys[: nout - i]):
                if _stored_nonzero(yc):
                    out[i + j] = out[i + j] + xc * yc
    return out


def _inv_unit_coeffs(cs: list[Coeff], rel: int) -> list[Coeff]:
    """Inverse of a coefficient list with cs[0] == 1, to rel terms (Newton)."""
    b: list[Coeff] = [Fraction(1)]
    cur = 1
    while cur < rel:
        cur = min(2 * cur, rel)
        ab = _mul_coeff_lists(cs[:cur], b + [Fraction(0)] * (cur - len(b)), cur)
        e: list[Coeff] = [-(v) for v in ab]
        e[0] = e[0] + 2
        b = _mul_coeff_lists(b + [Fraction(0)] * (cur - len(b)), e, cur)
    return b


def eta_series(prec: int, scale: int = 24) -> QSeries:
    """q^(1/24) * prod (1 - q^n), truncated below exponent prec/scale.

    Sparse generation via the pentagonal number theorem: the exponents
    present are (1 + 12k(3k-1))/24 for integer k, with sign (-1)^k.  The
    naive product is kept as an independent oracle in the test suite.
    """
    if scale % 24:
        raise ValueError("eta series needs a scale divisible by 24")
    if prec <= scale // 24:
        raise ValueError("prec must exceed the leading exponent")
    step = scale // 24
    vec: list[Scalar] = [0] * (prec - step)
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = (1 + 12 * kk * (3 * kk - 1)) * step
            if e < prec:
                vec[e - step] = 1 if kk % 2 == 0 else -1
                hit = True
        if not hit:
            break
        k += 1
    return QSeries(scale, step, vec, prec)


# ---------------------------------------------------------------------------
# comparison with the current layout (not part of the former module)
# ---------------------------------------------------------------------------


def to_reference(new) -> QSeries:
    """The same series as a former scale-24 QSeries."""
    vec: list = [Fraction(0)] * (24 * new.prec)
    vec[::24] = [new.coeff(n) for n in range(new.prec)]
    return QSeries(24, new.offset, vec, new.offset + 24 * new.prec)


def assert_matches_reference(new, old: QSeries, var: str = "q") -> None:
    """new (an etaq.series.QSeries) and old carry the same coefficients,
    valuation and precision, render the same text and, when rational,
    the same JSON triples (exponents in 1/old.scale units)."""
    step = 24 // old.scale  # 1/24 units per slot of the old lattice
    assert old.prec * step == new.offset + 24 * new.prec, "precision"
    for e in range(min(old.offset * step, new.offset), old.prec * step):
        n, r = divmod(e - new.offset, 24)
        got = _as_coeff(new.coeff(n)) if r == 0 else 0
        want = old.coeff(e // step) if e % step == 0 else 0
        assert got == want, f"coefficient of q^({e}/24)"
    v_new, v_old = new.valuation(), old.valuation()
    if v_old is None:
        assert v_new is None, "valuation"
    else:
        assert v_new is not None and new.offset + 24 * v_new == v_old * step, "valuation"
    assert new.render_text(var) == old.render_text(var), "text"
    if new.cyc_order is None:
        assert new.to_json_triples(old.scale) == old.to_json_triples(), "JSON triples"
    else:
        assert new.cyc_order == old.cyc_order, "cyclotomic order"
