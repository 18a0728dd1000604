"""Exact arithmetic in cyclotomic fields Q(zeta_L).

An element is stored on the non-reduced group-ring basis
{zeta_L^j : 0 <= j < L}, i.e. as a polynomial in zeta_L taken modulo
x^L - 1.  That representation is not unique, but zero is decidable:
the element vanishes iff the coefficient polynomial is divisible by
the L-th cyclotomic polynomial Phi_L.  This is the entire mechanism by
which vanishing of cusp-expansion coefficients is certified, so the
division is done exactly over Q and no coefficient ever leaves exact
arithmetic.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .arith import factorize, lcm, prime_power

__all__ = ["CycNumber", "cyclotomic_polynomial"]

Scalar = Union[int, Fraction]

_phi_cache: dict[int, tuple[int, ...]] = {}
_phi_lock = threading.Lock()


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials (b monic up to sign)."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        q, r = divmod(a[i], lb)
        assert r == 0, "non-exact polynomial division"
        out[i - db] = q
        if q:
            for j in range(db + 1):
                a[i - db + j] -= q * b[j]
    assert all(x == 0 for x in a), "non-exact polynomial division"
    return out


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of Phi_order, constant term first.

    Prime powers p^s use the closed form sum_{0<=u<p} x^(u*p^(s-1));
    other orders use Phi_L = prod_{d | L} (x^(L/d) - 1)^mu(d) by exact
    polynomial multiplication and division.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    with _phi_lock:
        if order in _phi_cache:
            return _phi_cache[order]
        pp = prime_power(order)
        if order == 1:
            poly = [-1, 1]
        elif pp is not None:
            p, s = pp
            step = p ** (s - 1)
            poly = [0] * ((p - 1) * step + 1)
            for u in range(p):
                poly[u * step] = 1
        else:
            num: list[int] = [1]
            den: list[int] = [1]
            for d in _squarefree_divisors(order):
                mu = -1 if _omega(d) % 2 else 1
                binom = [-1] + [0] * (order // d - 1) + [1]  # x^(L/d) - 1
                if mu == 1:
                    num = _poly_mul(num, binom)
                else:
                    den = _poly_mul(den, binom)
            poly = _poly_divexact(num, den)
        result = tuple(poly)
        _phi_cache[order] = result
        return result


def _squarefree_divisors(n: int) -> list[int]:
    primes = list(factorize(n))
    out = [1]
    for p in primes:
        out += [d * p for d in out]
    return out


def _omega(n: int) -> int:
    return len(factorize(n))


class CycNumber:
    """Element of Q(zeta_order) as sum c_j * zeta_order^j, 0 <= j < order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Union[Mapping[int, Scalar], Iterable[Scalar]]):
        if order < 1:
            raise ValueError("order must be >= 1")
        vec = [Fraction(0)] * order
        if isinstance(coeffs, Mapping):
            for j, c in coeffs.items():
                vec[j % order] += Fraction(c)
        else:
            for j, c in enumerate(coeffs):
                vec[j % order] += Fraction(c)
        self.order = order
        self.coeffs = tuple(vec)

    @classmethod
    def zero(cls, order: int = 1) -> "CycNumber":
        return cls(order, ())

    @classmethod
    def from_rational(cls, value: Scalar, order: int = 1) -> "CycNumber":
        return cls(order, {0: Fraction(value)})

    @classmethod
    def root_of_unity(cls, order: int, exponent: int = 1) -> "CycNumber":
        """zeta_order^exponent."""
        return cls(order, {exponent % order: Fraction(1)})

    def lift(self, new_order: int) -> "CycNumber":
        """Rewrite in Q(zeta_new_order); new_order must be a multiple."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"cannot lift order {self.order} to {new_order}")
        step = new_order // self.order
        return CycNumber(new_order, {j * step: c for j, c in enumerate(self.coeffs) if c})

    @staticmethod
    def _coerce(x: "CycNumber | Scalar", order: int) -> "CycNumber":
        if isinstance(x, CycNumber):
            return x
        return CycNumber.from_rational(x, order)

    def _common(self, other: "CycNumber | Scalar") -> tuple["CycNumber", "CycNumber"]:
        o = self._coerce(other, 1)
        L = lcm(self.order, o.order)
        return self.lift(L), o.lift(L)

    def __add__(self, other):
        if not isinstance(other, (CycNumber, int, Fraction)):
            return NotImplemented
        a, b = self._common(other)
        return CycNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, (CycNumber, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other, 1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNumber(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._common(other)
        L = a.order
        out = [Fraction(0)] * L
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        k = i + j
                        out[k - L if k >= L else k] += ai * bj
        return CycNumber(L, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CycNumber.from_rational(1, self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def reduced(self) -> tuple[Fraction, ...]:
        """Canonical coordinates: remainder mod Phi_order, degree < deg Phi.

        Two representatives of the same field element reduce to the same
        tuple, so this doubles as a normal form.
        """
        phi = cyclotomic_polynomial(self.order)
        deg = len(phi) - 1
        rem = list(self.coeffs)
        for i in range(len(rem) - 1, deg - 1, -1):
            q = rem[i]  # phi is monic
            if q:
                for j in range(len(phi)):
                    rem[i - deg + j] -= q * phi[j]
        return tuple(rem[:deg])

    def is_zero(self) -> bool:
        """Exact test: the representative is divisible by Phi_order."""
        if all(c == 0 for c in self.coeffs):
            return True
        return all(c == 0 for c in self.reduced())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (CycNumber, int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.reduced()))

    def rational_value(self) -> Fraction | None:
        """The element as a Fraction if it is rational, else None."""
        red = self.reduced()
        if all(c == 0 for c in red[1:]):
            return red[0] if red else Fraction(0)
        return None

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse via extended Euclid against Phi_order."""
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.reduced())
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # extended gcd in Q[x]: s*a + t*phi = g (g constant since Phi_L
        # is irreducible and a is nonzero mod Phi_L)
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _poly_mul_frac(q, s1))
        g = _trim(r0)
        assert len(g) == 1, "cyclotomic polynomial must be irreducible over Q"
        # invariant of the loop: s0 * a == r0 (mod phi), so s0/g inverts a
        cand = CycNumber(self.order, [c / g[0] for c in s0])
        if not (cand * self - 1).is_zero():
            raise AssertionError("cyclotomic inversion failed")
        return cand

    def render(self, symbol: str = "zeta") -> str:
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
                pw = f"{symbol}{self.order}" + (f"^{j}" if j > 1 else "")
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycNumber({self.order}, {self.render()!r})"


def _trim(p: list[Fraction]) -> list[Fraction]:
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _qpoly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a, b = _trim(list(a)), _trim(list(b))
    if len(a) < len(b):
        return [Fraction(0)], a
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] / b[-1]
        q[i - (len(b) - 1)] = c
        if c:
            for j in range(len(b)):
                a[i - (len(b) - 1) + j] -= c * b[j]
    return q, _trim(a)


def _qpoly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out
