"""Eta quotients: weights, expansions, cusp orders (with the valence-sum
identity as the structural oracle), modularity criteria, and the
logarithmic derivative."""

import random
from fractions import Fraction
from math import gcd

import pytest

from etaq.arith import divisors
from etaq.eisenstein import EisensteinElement
from etaq.eta import EtaQuotient, parse_eta
from etaq.series import QSeries, SeriesDomainError, eta_series

JACOBI = EtaQuotient(4, {1: -8, 2: 20, 4: -8})


def shrink(f: EtaQuotient) -> EtaQuotient:
    """The primitive g with f(z) = g(dz), d maximal (f itself if primitive)."""
    d = 0
    for t in f.exponents:
        d = gcd(d, t)
    if d <= 1:
        return f
    return EtaQuotient(f.level // d if f.level % d == 0 else f.level,
                       {t // d: r for t, r in f.exponents.items()})


def test_weights():
    assert JACOBI.weight() == 2
    assert EtaQuotient(4, {1: -4, 2: 2}).weight() == -1
    assert EtaQuotient(4, {}).weight() == 0


def test_level_divisor_validation():
    with pytest.raises(ValueError):
        EtaQuotient(4, {3: 1})


def test_expansion_jacobi():
    ex = JACOBI.expansion(24 * 8 + 1)
    # four-squares representation counts
    assert [ex.coeff_q(n) for n in range(8)] == [1, 8, 24, 32, 24, 48, 96, 64]


def test_expansion_offsets():
    f = EtaQuotient(4, {2: -4, 4: 8})
    ex = f.expansion(24 * 5)
    assert ex.valuation() == 24  # leading term q
    assert EtaQuotient(1, {}).expansion(5).coeff(0) == 1
    with pytest.raises(SeriesDomainError):
        f.expansion(10)


def product_expansion(f: EtaQuotient, prec: int) -> QSeries:
    """Reference: the product of pentagonal series eta(tz)^r_t on the
    scale-24 lattice, with Newton inverses for negative exponents."""
    rel = prec - f.offset()
    out = QSeries.one(24, rel)
    for t, r in f.exponents.items():
        nterms = -(-rel // t)  # eta(tz) advances in steps of t
        out = out * eta_series(1 + nterms, 24).substitute_power(t) ** r
    return out.truncate(prec)


def test_expansion_matches_product_reference():
    rng = random.Random(2024)
    cases = [EtaQuotient(1, {}), EtaQuotient(4, {1: -12, 2: -12, 4: -12})]
    for n in (1, 2, 4, 8, 16, 3, 9, 27, 25, 49, 12):
        for _ in range(10):
            cases.append(EtaQuotient(n, {t: rng.randint(-12, 12) for t in divisors(n)}))
    assert any(f.offset() < 0 for f in cases) and any(not f.exponents for f in cases)
    for i, f in enumerate(cases):
        # mostly precisions off the q-exponent grid, some on it
        prec = f.offset() + 24 * rng.randint(0, 12) + (rng.randint(1, 23) if i % 4 else 24)
        got, want = f.expansion(prec), product_expansion(f, prec)
        assert (got.scale, got.offset, got.prec) == (want.scale, want.offset, want.prec), f
        assert got.coeffs == want.coeffs, f


def test_expansion_matches_eisenstein_combination():
    # eta(2)^16/eta(1)^8 = E4(z) - E4(2z)
    f = EtaQuotient(2, {1: -8, 2: 16})
    lhs = f.expansion(24 * 12 + 1)
    rhs = EisensteinElement(4, 2, {1: 1, 2: -1}).expansion(13, scale=24)
    assert lhs.agrees_with(rhs)


def test_order_at_denominator_examples():
    assert JACOBI.order_at_denominator(2) == 1
    assert JACOBI.order_at_denominator(1) == 0
    assert JACOBI.order_at_denominator(4) == 0
    with pytest.raises(ValueError):
        JACOBI.order_at_denominator(3)


def test_total_cusp_order_examples():
    assert JACOBI.total_cusp_order() == 1
    f = EtaQuotient(2, {1: -8, 2: 16})
    assert f.total_cusp_order() == 1  # (4/12)(2+1)
    assert EtaQuotient(4, {}).total_cusp_order() == 0
    with pytest.raises(ValueError):
        EtaQuotient(12, {1: 2}).total_cusp_order()


def test_valence_sum_identity_random():
    # sum over cusps (with multiplicity) of width-normalized orders
    # equals (k/12)(p^m + p^(m-1)) for every exponent vector
    rng = random.Random(23)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        m = rng.randint(0, 4)
        n = p**m
        exps = {t: rng.randint(-8, 8) for t in divisors(n)}
        f = EtaQuotient(n, exps)
        k = f.weight()
        expected = Fraction(k, 12) * (n + n // p) if m else Fraction(k, 12)
        assert f.total_cusp_order() == expected


def test_infinity_cusp_order_matches_valuation():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice([1, 2, 4, 8, 9, 16])
        exps = {t: rng.randint(-4, 4) for t in divisors(n)}
        f = EtaQuotient(n, exps)
        if not f.exponents:
            continue
        ex = f.expansion(f.offset() + 48)
        assert ex.valuation() == f.offset()
        assert Fraction(f.offset(), 24) == f.order_at_denominator(n)


def test_modularity_report():
    rep = JACOBI.is_modular_on_gamma0()
    assert rep.is_modular and rep.weight == 2
    assert rep.order_map == {1: 0, 2: 1, 4: 0}

    rep = EtaQuotient(9, {1: -3, 3: 10, 9: -3}).is_modular_on_gamma0()
    assert rep.is_modular

    rep = EtaQuotient(1, {1: 1}).is_modular_on_gamma0()
    assert not rep.is_modular
    assert ("sum t*r_t = 0 mod 24", False) in rep.conditions

    # weight-0 quotient from the derivative-pair list: all criteria hold,
    # orders of both signs (zeros and poles all at cusps)
    rep = EtaQuotient(9, {1: -3, 9: 3}).is_modular_on_gamma0()
    assert rep.weight == 0
    assert all(ok for _, ok in rep.conditions)
    assert rep.order_map == {1: -1, 3: 0, 9: 1}
    assert not rep.holomorphic_at_cusps

    # eta(1)^4: integral weight 2 but fails the mod-24 conditions
    rep = EtaQuotient(4, {1: 4}).is_modular_on_gamma0()
    assert not rep.is_modular


def test_character_condition():
    # eta(1)^8 eta(2)^-4: product of t^{r_t} = 2^-4 is a square -> trivial
    rep = EtaQuotient(4, {1: 8, 2: -4}).is_modular_on_gamma0()
    assert dict(rep.conditions)["trivial character"]
    # eta(1)^10 eta(2)^-4 has weight 3: odd, rejected
    rep = EtaQuotient(4, {1: 10, 2: -4}).is_modular_on_gamma0()
    assert not dict(rep.conditions)["even integer weight"]
    # product 2^1 is not a rational square (conditions are independent)
    rep = EtaQuotient(8, {2: 1}).is_modular_on_gamma0()
    assert not dict(rep.conditions)["trivial character"]


def test_rescale_power_primitive():
    f = EtaQuotient(1, {1: -2})
    g = f.rescale(2)
    assert g.level == 2 and g.exponents == {2: -2}
    assert not g.is_primitive()
    assert shrink(g) == f
    assert EtaQuotient(4, {1: -4, 2: 2}).is_primitive()
    assert f.power(3).exponents == {1: -6}
    assert not EtaQuotient(4, {}).is_primitive()


def test_rescale_matches_substitution():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.choice([1, 2, 3, 4])
        exps = {t: rng.randint(-3, 3) for t in divisors(n)}
        f = EtaQuotient(n, exps)
        t0 = rng.randint(1, 3)
        g = f.rescale(t0)
        lhs = g.expansion(g.offset() + 96 * t0)
        rhs = f.expansion(f.offset() + 96).substitute_power(t0)
        assert lhs.agrees_with(rhs)


def test_log_derivative():
    ld = EtaQuotient(4, {1: -8, 4: 8}).log_derivative()
    assert ld.coeffs == {1: 8, 4: -32}
    assert ld.weight_zero

    ld = EtaQuotient(1, {1: -2}).log_derivative()
    assert ld.coeffs == {1: 2}
    assert not ld.weight_zero  # weight -1, not in the weight-2 space

    ld = EtaQuotient(9, {1: -3, 9: 3}).log_derivative()
    assert ld.coeffs == {1: 3, 9: -27}
    assert ld.weight_zero


def test_log_derivative_series_identity():
    # D(f) = f * (log-derivative combination) exactly
    rng = random.Random(13)
    for _ in range(15):
        n = rng.choice([2, 4, 9])
        exps = {t: rng.randint(-3, 3) for t in divisors(n)}
        f = EtaQuotient(n, exps)
        if sum(exps.values()) != 0 or not f.exponents:
            continue
        ld = f.log_derivative()
        el = EisensteinElement(2, n, ld.coeffs)
        prec_q = 12
        ef = f.expansion(f.offset() + 24 * prec_q)
        lhs = ef.ramanujan_d()
        rhs = ef * el.expansion(prec_q + 1, scale=24)
        assert lhs.agrees_with(rhs)


def test_mul_and_render_and_parse():
    f = EtaQuotient(2, {1: -8, 2: 16})
    g = EtaQuotient(4, {4: 2})
    h = f * g
    assert h.level == 4 and h.exponents == {1: -8, 2: 16, 4: 2}
    assert f.render() == "eta(1)^-8 * eta(2)^16"
    assert EtaQuotient(4, {}).render() == "1"
    parsed = parse_eta("eta(2)^20*eta(1)^-8 * eta(4)^-8")
    assert parsed == JACOBI
    assert parse_eta("eta(3)", level=9).exponents == {3: 1}
    with pytest.raises(ValueError):
        parse_eta("eta(0)^2")
    with pytest.raises(ValueError):
        parse_eta("eta(2)**3")
    assert JACOBI.to_json() == {"level": 4, "exponents": {"1": -8, "2": 20, "4": -8}}
