"""Cyclotomic numbers: the exact zero test is the load-bearing piece, so
it is cross-checked against float evaluation and against known
cyclotomic polynomial values."""

import cmath
import random
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from etaq.arith import factorize, lcm, totient
from etaq.cyclotomic import CycNumber, cyclotomic_polynomial


def to_complex(x: CycNumber) -> complex:
    """Float evaluation: the oracle for the exact arithmetic below."""
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum(float(c) * z**j for j, c in enumerate(x.coeffs) if c)


@cache
def phi_reference(order: int) -> tuple[int, ...]:
    """Phi_L = (x^L - 1) / prod_{d | L, d < L} Phi_d, by exact long division."""
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            div = phi_reference(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = poly[i + len(div) - 1] // div[-1]
                for j, c in enumerate(div):
                    poly[i + j] -= quot[i] * c
            assert not any(poly), (order, d)
            poly = quot
    return tuple(poly)


@pytest.mark.parametrize("order", range(2, 61))
def test_cyclotomic_polynomial_matches_division_reference(order):
    poly = cyclotomic_polynomial(order)
    assert poly == phi_reference(order)
    assert len(poly) - 1 == totient(order)


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree phi(L); Phi_49 = sum_u x^(7u)
    assert cyclotomic_polynomial(49) == tuple(
        1 if i % 7 == 0 else 0 for i in range(43)
    )


def test_zero_examples():
    assert CycNumber(2, {0: 1, 1: 1}).is_zero()  # 1 + zeta_2
    assert CycNumber(4, [1, 1, 1, 1]).is_zero()  # all fourth roots
    assert not CycNumber(3, {0: 1, 1: -1}).is_zero()  # 1 - zeta_3


def test_zero_test_matches_float_evaluation():
    rng = random.Random(7)
    for _ in range(300):
        order = rng.randint(1, 16)
        coeffs = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for j in range(order)}
        x = CycNumber(order, coeffs)
        approx = to_complex(x)
        if x.is_zero():
            assert abs(approx) < 1e-9
        else:
            assert abs(approx) > 1e-9


def test_arithmetic_consistency_with_floats():
    rng = random.Random(11)
    for _ in range(60):
        la, lb = rng.randint(1, 10), rng.randint(1, 10)
        a = CycNumber(la, {j: rng.randint(-4, 4) for j in range(la)})
        b = CycNumber(lb, {j: rng.randint(-4, 4) for j in range(lb)})
        for op in ("add", "mul", "sub"):
            exact = getattr(a, f"__{op}__")(b)
            approx = {
                "add": to_complex(a) + to_complex(b),
                "mul": to_complex(a) * to_complex(b),
                "sub": to_complex(a) - to_complex(b),
            }[op]
            assert cmath.isclose(to_complex(exact), approx, rel_tol=1e-9, abs_tol=1e-9)


def test_equality_across_orders():
    one_a = CycNumber.from_rational(1, 3)
    one_b = CycNumber.from_rational(1, 4)
    assert one_a == one_b
    # zeta_6 = -zeta_3^2: same element at different orders
    z6 = CycNumber.root_of_unity(6, 1)
    z3sq = -CycNumber.root_of_unity(3, 2)
    assert z6 == z3sq
    assert CycNumber.root_of_unity(6, 1) != CycNumber.root_of_unity(6, 5)


def test_roots_of_unity_powers():
    z = CycNumber.root_of_unity(8)
    acc = CycNumber.from_rational(1, 8)
    total = CycNumber.zero(8)
    for _ in range(8):
        total = total + acc
        acc = acc * z
    assert total.is_zero()
    assert (z**8) == 1
    assert (z**4) == -1


def test_inverse():
    rng = random.Random(3)
    for _ in range(40):
        order = rng.randint(1, 12)
        x = CycNumber(order, {j: rng.randint(-3, 3) for j in range(order)})
        if x.is_zero():
            continue
        inv = x.inverse()
        assert (x * inv - 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        CycNumber(4, [1, 1, 1, 1]).inverse()


@pytest.mark.parametrize("order", [49, 125])
@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_inverse_at_large_orders(order, kind):
    """A 3-term element with large rational numerators and a dense one:
    the inverse is exact and comes back reduced, of degree < phi(L)."""
    rng = random.Random(f"{order}:{kind}")
    if kind == "sparse":
        coeffs = {
            j: Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            for j in rng.sample(range(order), 3)
        }
    else:
        coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(order)]
    x = CycNumber(order, coeffs)
    assert not x.is_zero()
    inv = x.inverse()
    assert x * inv == 1
    assert inv.terms and all(j < totient(order) for j in inv.terms)


def test_rational_value_and_render():
    x = CycNumber(6, {0: Fraction(1, 2)})
    assert x.rational_value() == Fraction(1, 2)
    assert CycNumber.root_of_unity(4).rational_value() is None
    assert CycNumber(4, {0: Fraction(1, 2), 1: -3}).render() == "1/2 - 3*zeta4"
    assert CycNumber.zero(5).render() == "0"


def test_hash_agrees_with_equality():
    a, b = CycNumber.from_rational(1, 3), CycNumber.from_rational(1, 4)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a == 1 and hash(a) == hash(1)
    half = CycNumber.from_rational(Fraction(-5, 6), 12)
    assert hash(half) == hash(Fraction(-5, 6))
    z6 = CycNumber.root_of_unity(6, 1)
    z3sq = -CycNumber.root_of_unity(3, 2)
    assert z6 == z3sq and hash(z6) == hash(z3sq)
    # 1 + zeta_2 and 1 + zeta_4 + zeta_4^2 + zeta_4^3 are zero
    assert hash(CycNumber(2, [1, 1])) == hash(CycNumber(4, [1, 1, 1, 1])) == hash(0)


# -- differential test against the dense layout -----------------------------
#
# DenseCyc is the layout CycNumber replaced: one Fraction per slot of
# the group-ring basis, with schoolbook products and reduction mod
# Phi_L over Q.  The sparse integer layout must give the same dense
# coordinates, the same reduced form, zero test, rational value,
# rendering and inverse.


class DenseCyc:
    """Element of Q(zeta_order) as sum c_j * zeta_order^j, 0 <= j < order."""

    def __init__(self, order, coeffs):
        vec = [Fraction(0)] * order
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        for j, c in items:
            vec[j % order] += Fraction(c)
        self.order = order
        self.coeffs = tuple(vec)

    def lift(self, new_order):
        step = new_order // self.order
        return DenseCyc(new_order, {j * step: c for j, c in enumerate(self.coeffs) if c})

    def _common(self, other):
        if not isinstance(other, DenseCyc):
            other = DenseCyc(1, [other])
        L = lcm(self.order, other.order)
        return self.lift(L), other.lift(L)

    def __add__(self, other):
        a, b = self._common(other)
        return DenseCyc(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return DenseCyc(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DenseCyc(self.order, [c * other for c in self.coeffs])
        a, b = self._common(other)
        L = a.order
        out = [Fraction(0)] * L
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        k = i + j
                        out[k - L if k >= L else k] += ai * bj
        return DenseCyc(L, out)

    __rmul__ = __mul__

    def reduced(self):
        phi = cyclotomic_polynomial(self.order)
        deg = len(phi) - 1
        rem = list(self.coeffs)
        for i in range(len(rem) - 1, deg - 1, -1):
            q = rem[i]
            if q:
                for j in range(len(phi)):
                    rem[i - deg + j] -= q * phi[j]
        return tuple(rem[:deg])

    def is_zero(self):
        return all(c == 0 for c in self.reduced())

    def rational_value(self):
        red = self.reduced()
        if all(c == 0 for c in red[1:]):
            return red[0]
        return None

    def inverse(self):
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.reduced())
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        g = _trim(r0)
        return DenseCyc(self.order, [c / g[0] for c in s0])

    def render(self):
        parts = []
        for j, c in enumerate(self.reduced()):
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


def _trim(p):
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _qpoly_divmod(a, b):
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


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _qpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


ORDERS = (1, 2, 12, 15, 27, 32, 49, 125)


@st.composite
def coefficient_data(draw, order):
    """Coefficients for CycNumber(order, ...): a mapping with 1-3 sparse
    terms (exponents outside [0, order) wrap), or one rational per slot.
    Sometimes a vanishing sum c * sum_u zeta^(k + u*order/p) is added, so
    that zero and rational elements occur with nontrivial representatives."""
    dense = draw(st.booleans())
    if dense:
        rat = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
        data = dict(enumerate(draw(st.lists(rat, min_size=order, max_size=order))))
    else:
        rat = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6))
        data = {}
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.integers(-2 * order, 3 * order))
            data[j] = data.get(j, 0) + draw(rat)
    if order > 1 and draw(st.booleans()):
        p = draw(st.sampled_from(sorted(factorize(order))))
        k, c = draw(st.integers(0, order - 1)), draw(st.integers(-5, 5))
        for u in range(p):
            j = (k + u * order // p) % order
            data[j] = data.get(j, 0) + c
    return [data[j] for j in range(order)] if dense else data


def _assert_same(new, ref):
    assert isinstance(new, CycNumber)
    assert new.order == ref.order
    assert new.coeffs == ref.coeffs
    # the stored form: nonzero integer numerators over a positive den
    # that shares no factor with all of them
    assert new.den >= 1
    assert all(0 <= j < new.order and isinstance(n, int) and n for j, n in new.terms.items())
    assert gcd(new.den, *new.terms.values()) == 1
    assert len({id(c) for c in new.coeffs if not c}) <= 1


def _assert_same_value(new, ref):
    assert new.reduced() == ref.reduced()
    assert new.is_zero() == ref.is_zero()
    assert new.rational_value() == ref.rational_value()
    assert new.render() == ref.render()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matches_dense_reference(data):
    oa = data.draw(st.sampled_from(ORDERS))
    ob = data.draw(st.sampled_from([o for o in ORDERS if lcm(oa, o) <= 250]))
    ca, cb = data.draw(coefficient_data(oa)), data.draw(coefficient_data(ob))
    a, b, A, B = CycNumber(oa, ca), CycNumber(ob, cb), DenseCyc(oa, ca), DenseCyc(ob, cb)
    si = data.draw(st.integers(-50, 50))
    sf = Fraction(data.draw(st.integers(-50, 50)), data.draw(st.integers(1, 60)))

    _assert_same(a, A)
    _assert_same(b, B)
    _assert_same(a + b, A + B)
    _assert_same(a - b, A - B)
    _assert_same(b - a, B - A)
    _assert_same(a * b, A * B)
    _assert_same(a.lift(oa * 2), A.lift(oa * 2))
    for s in (si, sf):
        _assert_same(a * s, A * s)
        _assert_same(s * a, s * A)
        _assert_same(a + s, A + s)
        _assert_same(s - a, s - A)
    for x, X in ((a, A), (b, B), (a - b, A - B), (a * b, A * B)):
        _assert_same_value(x, X)
    assert (a == b) == (A - B).is_zero()
    # the same element at twice the order, shifted by c*zeta^k*(1 + zeta^oa) = 0
    k, c = data.draw(st.integers(0, 2 * oa - 1)), data.draw(st.integers(1, 9))
    a2 = a.lift(2 * oa) + CycNumber(2 * oa, {k: c, k + oa: c})
    assert a2 == a and hash(a2) == hash(a)
    if a.rational_value() is not None:
        assert hash(a) == hash(a.rational_value())
    if A.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    elif totient(oa) <= 20:
        # the reference's extended Euclid over Q takes seconds per
        # element once phi(L) reaches 42 (L = 49); the norm inverse does not
        _assert_same(a.inverse(), A.inverse())
