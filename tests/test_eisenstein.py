"""Eisenstein series, element constraints, Sturm bounds, certified
matching, and the identity suite.  Expected series coefficients are
recomputed here from first principles (divisor sums by enumeration)."""

from fractions import Fraction

import pytest

from etaq.eisenstein import (
    EisensteinElement,
    MembershipTag,
    eisenstein_coefficient,
    eisenstein_series,
    match_eta,
    parse_element,
    random_p_element,
    sturm_bound,
    verify_identities,
)
from etaq.eta import EtaQuotient

import random


def sigma_oracle(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def test_e2_series():
    e2 = eisenstein_series(2, 8)
    assert e2.coeff(0) == Fraction(-1, 24)
    for n in range(1, 8):
        assert e2.coeff(n) == sigma_oracle(1, n)


def test_e4_series():
    e4 = eisenstein_series(4, 8)
    assert e4.coeff(0) == Fraction(1, 240)
    assert [e4.coeff(n) for n in (1, 2, 3)] == [1, 9, 28]


def test_d_of_e2_is_n_sigma():
    d = eisenstein_series(2, 8).ramanujan_d()
    assert d.coeff(0) == 0
    for n in range(1, 8):
        assert d.coeff(n) == n * sigma_oracle(1, n)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_constant_terms_vs_bernoulli(k):
    from etaq.arith import bernoulli

    assert eisenstein_series(k, 2).coeff(0) == Fraction(-bernoulli(k), 2 * k)


def test_eisenstein_weight_validation():
    with pytest.raises(ValueError):
        eisenstein_series(3, 5)
    with pytest.raises(ValueError):
        eisenstein_series(0, 5)


def test_weight2_balance_enforced():
    EisensteinElement(2, 4, {1: 8, 4: -32})  # 8 - 8 = 0, fine
    with pytest.raises(ValueError):
        EisensteinElement(2, 4, {1: 1, 4: 1})
    with pytest.raises(ValueError):
        EisensteinElement(2, 2, {1: 1})
    # weight >= 4 needs no balance
    EisensteinElement(4, 4, {1: 1})


def test_element_expansion_examples():
    el = EisensteinElement(2, 4, {1: 8, 4: -32})
    assert [el.expansion(5).coeff(n) for n in range(5)] == [1, 8, 24, 32, 24]
    el = EisensteinElement(2, 2, {1: 1, 2: -2})
    assert [el.expansion(5).coeff(n) for n in range(5)] == [
        Fraction(1, 24),
        1,
        1,
        4,
        1,
    ]
    el = EisensteinElement(4, 2, {1: 1, 2: -1})
    assert [el.expansion(4).coeff(n) for n in range(4)] == [0, 1, 8, 28]


def test_classify():
    assert EisensteinElement(2, 4, {1: 8, 4: -32}).classify() is MembershipTag.IN_P
    assert (
        EisensteinElement(2, 4, {2: 1, 4: -2}).classify() is MembershipTag.IN_O_RESCALED
    )
    assert (
        EisensteinElement(4, 4, {1: 1, 2: -1}).classify()
        is MembershipTag.IN_O_LOWER_LEVEL
    )
    assert EisensteinElement(4, 4, {}).classify() is MembershipTag.ZERO
    with pytest.raises(ValueError):
        EisensteinElement(4, 12, {1: 1}).classify()


def test_sturm_bound_examples():
    assert sturm_bound(2, 4) == 1
    assert sturm_bound(4, 4) == 2
    assert sturm_bound(2, 12) == 4
    assert sturm_bound(4, 1) == 0
    assert sturm_bound(2, 16) == 4


def test_match_eta_examples():
    el = match_eta(EtaQuotient(4, {1: -8, 2: 20, 4: -8}))
    assert el is not None and el.coeffs == {1: 8, 4: -32}

    el = match_eta(EtaQuotient(4, {1: 8, 2: -4}))
    assert el is not None and el.coeffs == {1: -8, 2: 48, 4: -64}

    el = match_eta(EtaQuotient(2, {1: -8, 2: 16}))
    assert el is not None and el.k == 4 and el.coeffs == {1: 1, 2: -1}


def test_match_eta_no_match():
    # the discriminant eta(1)^24 is a cusp form, not Eisenstein
    assert match_eta(EtaQuotient(1, {1: 24})) is None


def test_match_eta_preconditions():
    with pytest.raises(ValueError):
        match_eta(EtaQuotient(1, {1: 1}))  # not modular
    with pytest.raises(ValueError):
        match_eta(EtaQuotient(4, {1: -4, 2: 2}))  # weight -1


def test_match_round_trip():
    # match(expansion) is the identity on the matched combination
    for exps in [{1: -8, 2: 20, 4: -8}, {2: -4, 4: 8}, {1: -16, 2: 40, 4: -16}]:
        level = 4
        q = EtaQuotient(level, exps)
        el = match_eta(q)
        assert el is not None
        lhs = q.expansion(24 * 12 + 1)
        rhs = el.expansion(13)
        assert lhs.agrees_with(rhs)


def test_parse_element():
    el = parse_element("8*E2(1)-32*E2(4)", level=4)
    assert el.k == 2 and el.coeffs == {1: 8, 4: -32}
    el = parse_element("E4(1)-E4(2)")
    assert el.k == 4 and el.level == 2
    el = parse_element("1/2*E4(2)+1/2*E4(2)")
    assert el.coeffs == {2: 1}
    with pytest.raises(ValueError):
        parse_element("E2(1)+E4(2)")
    with pytest.raises(ValueError):
        parse_element("2*F2(1)")
    for level in (None, 4):
        with pytest.raises(ValueError, match=r"t in Ek\(t\) must be at least 1 in '-2\*E4\(0\)'"):
            parse_element("E4(1)-2*E4(0)", level=level)
    # the element itself refuses t = 0 before reducing the level mod t
    with pytest.raises(ValueError, match=r"t in E4\(t\) must be at least 1"):
        EisensteinElement(4, 4, {0: 1})


def test_eisenstein_coefficient_helper():
    for t in (1, 2, 4):
        for j in range(0, 9):
            el = eisenstein_series(4, 10).substitute_power(t)
            expect = el.coeff(j * 1) if j * 1 < el.prec else None
            assert eisenstein_coefficient(4, j, t) == el.coeff(j)


def test_identity_suite_all_verify():
    checks = verify_identities()
    by_name = {c.identity: c for c in checks}
    equalities = [
        "besge-e2-square",
        "besge-e2-square-z2",
        "besge-e2-square-z4",
        "huard-williams-e2-e2z2",
        "huard-williams-e2-e2z2-z2",
        "huard-williams-e2-e2z4",
        "jacobi-four-squares",
        "williams-table-no24",
        "eta-derivative-level4",
        "eta-derivative-level12",
    ]
    for name in equalities:
        assert by_name[name].status == "ok", by_name[name]
        assert by_name[name].bound >= 2 * sturm_bound(by_name[name].weight, by_name[name].level)
    for name in ("theta-power-eisenstein-part-2k2", "theta-power-eisenstein-part-2k4"):
        check = by_name[name]
        assert check.status == "remainder"
        assert "1/2" in (check.note or "")


def test_identity_suite_custom_precision():
    checks = verify_identities(prec=12)
    assert all(c.bound == 12 for c in checks)
    assert all(c.status in ("ok", "remainder") for c in checks)


def test_identity_json_schema():
    js = verify_identities(prec=10)[0].to_json()
    assert set(js) >= {"identity", "weight", "level", "bound", "status"}


def test_random_p_element_invariants():
    rng = random.Random(0)
    for k, p, m in [(2, 2, 1), (2, 2, 2), (4, 3, 2), (6, 7, 2), (2, 5, 2)]:
        for _ in range(20):
            el = random_p_element(rng, k, p, m)
            assert el.k == k and el.level == p**m
            assert el.coeffs.get(1) and el.coeffs.get(p**m)
            if k == 2:
                assert sum(r / t for t, r in el.coeffs.items()) == 0
    with pytest.raises(ValueError):
        random_p_element(rng, 2, 2, 0)
