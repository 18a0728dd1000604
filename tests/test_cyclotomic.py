"""Cyclotomic numbers: the exact zero test is the load-bearing piece, so
it is cross-checked against float evaluation and against known
cyclotomic polynomial values."""

import cmath
import random
from fractions import Fraction

import pytest

from etaq.cyclotomic import CycNumber, cyclotomic_polynomial


def to_complex(x: CycNumber) -> complex:
    """Float evaluation: the oracle for the exact arithmetic below."""
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum(float(c) * z**j for j, c in enumerate(x.coeffs) if c)


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree phi(L), and prime-power closed form
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


def test_rational_value_and_render():
    x = CycNumber(6, {0: Fraction(1, 2)})
    assert x.rational_value() == Fraction(1, 2)
    assert CycNumber.root_of_unity(4).rational_value() is None
    assert CycNumber(4, {0: Fraction(1, 2), 1: -3}).render() == "1/2 - 3*zeta4"
    assert CycNumber.zero(5).render() == "0"
