"""Cusp representatives, widths, expansions at cusps, exact orders, and
the order-sum bound machinery.

The two structural oracles here: (1) for elements matched to eta
quotients, orders at every cusp must agree with the closed-form eta
order, for every numerator; (2) orders must be invariant under the
(non-canonical) choice of SL2 completions, which only rotate the root
of unity entering the coefficients.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from etaq.arith import SL2Matrix, efgh_complete, sl2_complete
from etaq.cusps import (
    Cusp,
    check_order_bound,
    cusp_count,
    cusp_reps,
    denominator_multiplicity,
    expansion_at_cusp,
    order_at_cusp,
    order_sum_bound,
)
from etaq.eisenstein import EisensteinElement, match_eta, random_p_element
from etaq.eta import EtaQuotient
from etaq.linalg import rref
from etaq.series import SeriesDomainError


def nullspace(a) -> list[list[Fraction]]:
    """Basis of the right nullspace of A."""
    if not a:
        return []
    red, pivots = rref(a)
    ncols = len(a[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


JACOBI_EL = EisensteinElement(2, 4, {1: 8, 4: -32})


def test_cusp_reps_examples():
    assert [c.label() for c in cusp_reps(4)] == ["1/1", "1/2", "1/4"]
    assert [c.label() for c in cusp_reps(1)] == ["1/1"]
    assert len(cusp_reps(16)) == 6
    assert [c.label() for c in cusp_reps(9)] == ["1/1", "1/3", "2/3", "1/9"]


def test_cusp_count_closed_form():
    # p^[(m-1)/2] (p^((m-1)-2[(m-1)/2]) + 1) for prime powers, m >= 1
    for p in (2, 3, 5, 7):
        for m in range(1, 6):
            half = (m - 1) // 2
            expected = p**half * (p ** ((m - 1) - 2 * half) + 1)
            assert cusp_count(p**m) == expected == len(cusp_reps(p**m))
    assert cusp_count(1) == 1


def test_cusp_validation_and_width():
    with pytest.raises(ValueError):
        Cusp(1, 3, 4)
    with pytest.raises(ValueError):
        Cusp(2, 4, 4)
    assert Cusp(1, 2, 4).width == 1
    assert Cusp(1, 1, 4).width == 4
    assert Cusp(1, 4, 16).width == 1
    assert Cusp(1, 2, 16).width == 4
    assert Cusp(1, 2, 4).key() == Cusp(3, 2, 4).key()


def test_denominator_multiplicity():
    assert [denominator_multiplicity(16, c) for c in (1, 2, 4, 8, 16)] == [1, 1, 2, 1, 1]
    assert [denominator_multiplicity(9, c) for c in (1, 3, 9)] == [1, 2, 1]


def test_exponent_step_table_prime_powers():
    # gcd(p^j, p^i)^2 p^m / (p^j gcd(p^2i, p^m)) as a function of the
    # (i >= j?, i >= m/2?) quadrant, checked exhaustively
    for p in (2, 3):
        for m in range(0, 6):
            n = p**m
            for i in range(m + 1):
                for j in range(m + 1):
                    c, t = p**i, p**j
                    step = gcd(t, c) ** 2 * n // (t * gcd(c * c, n))
                    if 2 * i >= m:
                        expected = p**j if i >= j else p ** (2 * i - j)
                    else:
                        expected = p ** (m + j - 2 * i) if i >= j else p ** (m - j)
                    assert step == expected


def test_expansion_at_cusp_constant_example():
    # E_4(4z) at cusp 1/1 of Gamma0(4): a_0 = (1/4)^4 * (1/240)
    el = EisensteinElement(4, 4, {4: 1})
    exp = expansion_at_cusp(el, cusp_reps(4)[0], 4)
    assert exp.series.coeff(0).rational_value() == Fraction(1, 240 * 256)


def test_expansion_at_cusp_t_divides_c():
    # single term E_k(tz) with t | c: omega = 1, rational coefficients
    el = EisensteinElement(4, 4, {2: 1})
    cusp = Cusp(1, 4, 4)
    exp = expansion_at_cusp(el, cusp, 6)
    for td in exp.terms:
        assert td.omega_exp == 0
    for e in range(6):
        assert exp.series.coeff(e).rational_value() is not None


def test_expansion_exponent_lattice_integral():
    for n in (4, 9, 16):
        el = EisensteinElement(4, n, {t: 1 for t in (1, n)})
        for cusp in cusp_reps(n):
            exp = expansion_at_cusp(el, cusp, 8)
            assert exp.series.scale == 1  # integral exponents by construction


def test_orders_jacobi_element():
    orders = {c.label(): order_at_cusp(JACOBI_EL, c) for c in cusp_reps(4)}
    assert orders == {"1/1": 0, "1/2": 1, "1/4": 0}


def test_order_second_level4_element():
    el = EisensteinElement(2, 4, {1: -8, 2: 48, 4: -64})
    total = sum(order_at_cusp(el, c) for c in cusp_reps(4))
    assert total == 1


def test_order_at_cusp_level1():
    el = EisensteinElement(4, 1, {1: 1})
    assert order_at_cusp(el, cusp_reps(1)[0]) == 0


def test_order_errors():
    with pytest.raises(ValueError):
        order_at_cusp(EisensteinElement(4, 4, {}), Cusp(1, 2, 4))
    with pytest.raises(SeriesDomainError):
        # artificially tiny precision cannot see the first nonzero term
        order_at_cusp(JACOBI_EL, Cusp(1, 2, 4), prec=1)


def test_cross_oracle_eta_vs_eisenstein_orders():
    # for matched quotients the Eisenstein-side cusp order equals the
    # eta-side closed form at every numerator
    quotients = [
        EtaQuotient(4, {1: -8, 2: 20, 4: -8}),
        EtaQuotient(4, {1: 8, 2: -4}),
        EtaQuotient(4, {2: -4, 4: 8}),
        EtaQuotient(2, {1: -8, 2: 16}),
        EtaQuotient(9, {1: -3, 3: 10, 9: -3}),
        EtaQuotient(16, {1: 2, 2: -5, 4: 8, 8: 1, 16: -2}),
    ]
    for q in quotients:
        el = match_eta(q)
        assert el is not None
        for cusp in cusp_reps(q.level):
            eta_order = q.order_at_denominator(cusp.c)
            assert eta_order.denominator == 1
            assert order_at_cusp(el, cusp) == eta_order


def test_cross_oracle_composite_level():
    # expansions are not restricted to prime powers: the level-12
    # product-to-sum combination against its eta quotient at all cusps
    el = EisensteinElement(2, 12, {1: 2, 2: -3, 4: 4, 6: 9, 12: -36})
    q = EtaQuotient(12, {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4})
    orders = {}
    for cusp in cusp_reps(12):
        orders[cusp.label()] = order_at_cusp(el, cusp, prec=10)
        assert orders[cusp.label()] == q.order_at_denominator(cusp.c)
    assert orders == {"1/1": 0, "1/2": 1, "1/3": 0, "1/4": 2, "1/6": 1, "1/12": 0}


def _shifted_completion(a, c, j):
    m = sl2_complete(a, c)
    return SL2Matrix(a, m.b + j * a, c, m.d + j * c)


def test_order_independent_of_completions():
    # 50 randomized completion choices: (b, d) shifted by multiples of
    # (a, c), and (f, h) shifted by multiples of (e, g)
    rng = random.Random(99)
    elements = [
        JACOBI_EL,
        EisensteinElement(2, 4, {1: -8, 2: 48, 4: -64}),
        EisensteinElement(4, 9, {1: 2, 3: -5, 9: 7}),
        EisensteinElement(6, 8, {1: 1, 2: -3, 4: 2, 8: 5}),
    ]
    for el in elements:
        for cusp in cusp_reps(el.level):
            reference = order_at_cusp(el, cusp)
            for _ in range(50):
                j = rng.randint(-20, 20)
                shifted_cusp = Cusp(
                    cusp.a, cusp.c, el.level, _shifted_completion(cusp.a, cusp.c, j)
                )

                def shifted_efgh(t, a, c, _rng=rng):
                    e, f, g, h = efgh_complete(t, a, c)
                    jj = _rng.randint(-20, 20)
                    return e, f + jj * e, g, h + jj * g

                got = order_at_cusp(el, shifted_cusp, efgh=shifted_efgh)
                assert got == reference


def test_order_sum_bound_values():
    assert order_sum_bound(1) == 1
    assert order_sum_bound(4) == 4
    assert order_sum_bound(2) == 2
    assert order_sum_bound(9) == 4
    assert order_sum_bound(16) == 6
    with pytest.raises(ValueError):
        order_sum_bound(12)


def test_check_order_bound_examples():
    report = check_order_bound(JACOBI_EL)
    assert report.ok
    assert report.orders == {"1/1": 0, "1/2": 1, "1/4": 0}
    assert report.total == 1 and report.bound == 4

    report = check_order_bound(EisensteinElement(2, 4, {1: -8, 2: 48, 4: -64}))
    assert report.ok and report.total == 1

    with pytest.raises(ValueError):
        check_order_bound(EisensteinElement(4, 4, {1: 1, 2: 1}))  # not IN_P


def test_check_order_bound_sampled_small():
    rng = random.Random(1)
    for k in (2, 4, 6):
        for n in (2, 4, 9, 25, 49, 32):
            from etaq.arith import prime_power

            p, m = prime_power(n)
            for _ in range(10):
                el = random_p_element(rng, k, p, m)
                report = check_order_bound(el)
                assert report.ok, report.to_json()
                cap = 2 if n == 4 else 1
                assert all(v <= cap for v in report.orders.values())


def test_level4_triple_vanishing_at_half_cusp_forces_zero():
    # at level 4, forcing the first three coefficients at cusp 1/2 to
    # vanish admits only the zero element (for any even weight), which
    # is why the denominator-2 cusp carries the cap 2 instead of 1
    from etaq.arith import efgh_complete
    from etaq.cusps import _coefficient, _cusp_terms
    from fractions import Fraction

    for k in (2, 4, 6, 8):
        cusp = Cusp(1, 2, 4)
        rows = []
        for e in (0, 1, 2):
            coords: dict[int, list[Fraction]] = {}
            for idx, t in enumerate((1, 2, 4)):
                basis = EisensteinElement.__new__(EisensteinElement)
                basis.k, basis.level, basis.coeffs = k, 4, {t: Fraction(1)}
                order, terms = _cusp_terms(basis, cusp, efgh_complete)
                val = _coefficient(terms, order, k, e)
                for ci, cv in enumerate(val.reduced()):
                    coords.setdefault(ci, [Fraction(0)] * 3)[idx] = cv
            rows.extend(coords.values())
        if k == 2:
            rows.append([Fraction(1, t) for t in (1, 2, 4)])
        assert nullspace(rows) == []


def test_forced_double_vanishing_kills_new_elements():
    # if two leading coefficients at a cusp a/p^i are forced to vanish,
    # every solution loses r_1 or r_{p^m}: solve the exact linear
    # conditions and inspect the nullspace
    from etaq.cusps import _coefficient, _cusp_terms

    rng = random.Random(4)
    cases = [(2, 2, 3), (4, 3, 2), (2, 2, 4), (4, 2, 3), (6, 5, 2), (4, 7, 1)]
    for k, p, m in cases:
        n = p**m
        divs = [p**j for j in range(m + 1)]
        for cusp in cusp_reps(n):
            rows = []
            for e in (0, 1):
                # coefficient of q^e as a rational-linear form in r_t,
                # one row per cyclotomic coordinate
                coords: dict[int, list[Fraction]] = {}
                for idx, t in enumerate(divs):
                    basis = EisensteinElement(k, n, {t: 1}) if k != 2 else None
                    if basis is None:
                        # bypass the weight-2 balance for the formal row
                        basis = EisensteinElement.__new__(EisensteinElement)
                        basis.k, basis.level, basis.coeffs = 2, n, {t: Fraction(1)}
                    order, terms = _cusp_terms(basis, cusp, efgh_complete)
                    val = _coefficient(terms, order, k, e)
                    for ci, cv in enumerate(val.reduced()):
                        coords.setdefault(ci, [Fraction(0)] * len(divs))[idx] = cv
                rows.extend(coords.values())
            if k == 2:
                rows.append([Fraction(1, t) for t in divs])
            basis_vecs = nullspace(rows)
            for vec in basis_vecs:
                assert vec[0] == 0 or vec[-1] == 0
            for _ in range(5):
                # random element of the whole solution space
                combo = [Fraction(0)] * len(divs)
                for vec in basis_vecs:
                    w = rng.randint(-5, 5)
                    combo = [c + w * v for c, v in zip(combo, vec)]
                assert combo[0] == 0 or combo[-1] == 0
