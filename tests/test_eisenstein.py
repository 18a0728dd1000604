"""Eisenstein series, element constraints, Sturm bounds, certified
matching, and the identity suite.  Expected series coefficients are
recomputed here from first principles (divisor sums by enumeration)."""

import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from etaq import eisenstein
from etaq.arith import bernoulli, divisors
from etaq.cli import main
from etaq.eisenstein import (
    EisensteinElement,
    IdentityCheck,
    MembershipTag,
    eisenstein_series,
    match_certification_rows,
    match_eta,
    parse_element,
    random_p_element,
    sturm_bound,
    verify_identities,
)
from etaq.eta import EtaQuotient
from etaq.linalg import solve_unique
from etaq.series import QSeries
from test_eta import rescale
from test_series import agrees_with, substitute_power, truncate


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


@pytest.mark.parametrize("prec", [0, -1])
def test_expansion_count_validation(prec):
    # an element refuses an empty window the way eisenstein_series does
    with pytest.raises(ValueError, match="prec must be >= 1"):
        EisensteinElement(4, 1, {1: 1}).expansion(prec)
    with pytest.raises(ValueError, match="prec must be >= 1"):
        eisenstein_series(4, prec)


def test_inexact_coefficients_are_rejected():
    # 0.1 was stored as 3602879701896397/36028797018963968; only int and
    # Fraction coefficients and integer t are read, and the error names the term
    for coeffs, term in (({1: 0.1}, "0.1*E4(1)"), ({2.0: 1}, "1*E4(2.0)"),
                         ({1: "1/2"}, "'1/2'*E4(1)")):
        with pytest.raises(TypeError, match=re.escape(term)):
            EisensteinElement(4, 4, coeffs)
    assert EisensteinElement(4, 4, {1: Fraction(1, 10), 2: 3}).coeffs == {1: Fraction(1, 10), 2: 3}


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
        lhs = q.expansion(13)
        rhs = el.expansion(13)
        assert agrees_with(lhs, rhs)


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
    # every sign must begin a term
    for text, rest in [
        ("E4(1)--E4(2)", "--E4(2)"),
        ("E4(1)-+E4(2)", "-+E4(2)"),
        ("E4(1)+-2*E4(2)", "+-2*E4(2)"),
        ("E4(1)-", "-"),
        ("+", "+"),
    ]:
        with pytest.raises(ValueError, match=f"begins no term at {re.escape(repr(rest))}"):
            parse_element(text)
    assert parse_element("+E4(1)-2*E4(2)").coeffs == {1: 1, 2: -2}
    for level in (None, 4):
        with pytest.raises(ValueError, match=r"t in Ek\(t\) must be at least 1 in '-2\*E4\(0\)'"):
            parse_element("E4(1)-2*E4(0)", level=level)
    # the element itself refuses t = 0 before reducing the level mod t
    with pytest.raises(ValueError, match=r"t in E4\(t\) must be at least 1"):
        EisensteinElement(4, 4, {0: 1})


def eisenstein_coefficient(k: int, j: int, t: int = 1) -> Fraction:
    """Coefficient of q^j in E_k(tz)."""
    if j == 0:
        return Fraction(-bernoulli(k), 2 * k)
    if j % t:
        return Fraction(0)
    n = j // t
    total = sum(d ** (k - 1) for d in divisors(n))
    return Fraction(total)


def match_eta_reference(g: EtaQuotient) -> EisensteinElement | None:
    """The former match_eta in Fractions: the square system of the rows
    q^t, t | N (unitriangular, so its solution is unique) solved by row
    reduction, then every row 0..rows and the weight-2 balance checked."""
    report = g.is_modular_on_gamma0()
    if not report.is_modular:
        raise ValueError(f"quotient fails modularity criteria: {report.failed()}")
    if report.weight < 2 or report.weight.denominator != 1 or report.weight % 2:
        raise ValueError(f"matching needs even integer weight >= 2, got {report.weight}")
    k = int(report.weight)
    n = g.level
    divs = divisors(n)
    rows = match_certification_rows(k, n)
    if g.offset() % 24:
        raise AssertionError("integral-exponent expansion expected for modular quotient")
    lead = g.offset() // 24
    exp = g.expansion(rows + 1 - lead)

    a = [[eisenstein_coefficient(k, j, t) for t in divs] for j in range(rows + 1)]
    b = [exp.coeff(j - lead) for j in range(rows + 1)]
    sol = solve_unique([a[t] for t in divs], [b[t] for t in divs])
    if any(sum(x * r for x, r in zip(row, sol)) != bj for row, bj in zip(a, b)):
        return None
    if k == 2 and sum(r / t for t, r in zip(divs, sol)):
        return None
    return EisensteinElement(k, n, dict(zip(divs, sol)))


def match_outcome(match, g: EtaQuotient):
    """The element or None that match returns, or the type it raises."""
    try:
        return match(g)
    except Exception as exc:  # the type raised is the outcome
        return type(exc)


# Holomorphic modular eta quotients; their rescalings and products are
# modular again, so the draws below reach the matching itself.
MODULAR = [
    EtaQuotient(1, {1: 24}),
    EtaQuotient(2, {1: -8, 2: 16}),
    EtaQuotient(2, {1: 16, 2: -8}),
    EtaQuotient(3, {1: 6, 3: 6}),
    EtaQuotient(4, {1: -8, 2: 20, 4: -8}),
    EtaQuotient(4, {1: 8, 2: -4}),
    EtaQuotient(4, {2: -4, 4: 8}),
    EtaQuotient(5, {1: 4, 5: 4}),
    EtaQuotient(6, {1: 2, 2: 2, 3: 2, 6: 2}),
    EtaQuotient(8, {1: 4, 2: -2, 4: -2, 8: 4}),
    EtaQuotient(9, {1: -3, 3: 10, 9: -3}),
    EtaQuotient(11, {1: 2, 11: 2}),
    EtaQuotient(12, {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4}),
    EtaQuotient(14, {1: 1, 2: 1, 7: 1, 14: 1}),
    EtaQuotient(16, {1: 2, 2: -5, 4: 10, 8: -5, 16: 2}),
]


@st.composite
def quotients_up_to_level_144(draw):
    if draw(st.booleans()):
        # arbitrary exponents: mostly refused by the modularity criteria
        n = draw(st.one_of(st.sampled_from([6, 12, 36]), st.integers(1, 144)))
        support = draw(st.lists(st.sampled_from(divisors(n)), unique=True, max_size=6))
        return EtaQuotient(n, {t: draw(st.integers(-24, 24)) for t in support})
    f = draw(st.sampled_from(MODULAR))
    f = rescale(f, draw(st.integers(1, 144 // f.level)))
    g = draw(st.sampled_from(MODULAR))
    if g.weight() + f.weight() <= 8 and lcm(f.level, g.level) <= 144:
        f = f * g
    n = f.level * draw(st.integers(1, 144 // f.level))
    return EtaQuotient(n, f.exponents)


def test_match_eta_quotient_draws_are_modular():
    assert all(f.is_modular_on_gamma0().is_modular for f in MODULAR)


@settings(max_examples=200, deadline=None)
@given(quotients_up_to_level_144())
def test_match_eta_matches_fraction_reference(g):
    assert match_outcome(match_eta, g) == match_outcome(match_eta_reference, g)


def test_eisenstein_coefficient_helper():
    for t in (1, 2, 4):
        for j in range(0, 9):
            el = substitute_power(eisenstein_series(4, 10), t)
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


# The identity suite as it was spelled out before it became three
# tables: each side built from E_k(z) by q -> q^t, scalar multiples and
# sums, and the eta quotients named one constant at a time.


def _e(k: int, t: int, prec: int) -> QSeries:
    return truncate(substitute_power(eisenstein_series(k, -(-prec // t)), t), prec)


def _d(x: QSeries) -> QSeries:
    return x.ramanujan_d()


def _convolution_sides(name: str, prec: int) -> tuple[QSeries, QSeries, int, int]:
    e2 = _e(2, 1, prec)
    e2_2 = _e(2, 2, prec)
    e2_4 = _e(2, 4, prec)
    e4 = _e(4, 1, prec)
    e4_2 = _e(4, 2, prec)
    e4_4 = _e(4, 4, prec)
    half = Fraction(1, 2)
    if name == "besge-e2-square":
        return e2 * e2, e4 * Fraction(5, 12) - _d(e2) * half, 4, 1
    if name == "besge-e2-square-z2":
        return e2_2 * e2_2, e4_2 * Fraction(5, 12) - _d(e2_2) * Fraction(1, 4), 4, 2
    if name == "besge-e2-square-z4":
        return e2_4 * e2_4, e4_4 * Fraction(5, 12) - _d(e2_4) * Fraction(1, 8), 4, 4
    if name == "huard-williams-e2-e2z2":
        rhs = (
            e4 * Fraction(1, 12)
            + e4_2 * Fraction(1, 3)
            - _d(e2) * Fraction(1, 8)
            - _d(e2_2) * Fraction(1, 4)
        )
        return e2 * e2_2, rhs, 4, 2
    if name == "huard-williams-e2-e2z2-z2":
        rhs = (
            e4_2 * Fraction(1, 12)
            + e4_4 * Fraction(1, 3)
            - _d(e2_2) * Fraction(1, 16)
            - _d(e2_4) * Fraction(1, 8)
        )
        return e2_2 * e2_4, rhs, 4, 4
    if name == "huard-williams-e2-e2z4":
        rhs = (
            e4 * Fraction(1, 48)
            + e4_2 * Fraction(1, 16)
            + e4_4 * Fraction(1, 3)
            - _d(e2) * Fraction(1, 16)
            - _d(e2_4) * Fraction(1, 4)
        )
        return e2 * e2_4, rhs, 4, 4
    raise KeyError(name)


JACOBI_QUOTIENT = {1: -8, 2: 20, 4: -8}
JACOBI_ELEMENT = {1: 8, 4: -32}
WILLIAMS_QUOTIENT = {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4}
WILLIAMS_ELEMENT = {1: 2, 2: -3, 4: 4, 6: 9, 12: -36}
DERIV4_INPUT = {1: -8, 4: 8}
DERIV4_OUTPUT = {1: -16, 2: 20}
DERIV12_INPUT = {1: -4, 2: 3, 4: -2, 6: -3, 12: 6}
DERIV12_OUTPUT = {1: -6, 2: 5, 3: -2, 4: 2, 6: 3, 12: 2}


def _quotient_series(exps: dict[int, int], level: int, steps: int) -> QSeries:
    return EtaQuotient(level, exps).expansion(steps)


def identity_sides_reference(prec):
    """{name: (weight, level, bound, lhs, rhs)} as the hand-written suite
    built them."""
    out = {}

    def bound(w, lvl):
        return prec if prec is not None else max(50, 2 * sturm_bound(w, lvl))

    for name, w, lvl in [
        ("besge-e2-square", 4, 1),
        ("besge-e2-square-z2", 4, 2),
        ("besge-e2-square-z4", 4, 4),
        ("huard-williams-e2-e2z2", 4, 2),
        ("huard-williams-e2-e2z2-z2", 4, 4),
        ("huard-williams-e2-e2z4", 4, 4),
    ]:
        n = bound(w, lvl)
        lhs, rhs, _, _ = _convolution_sides(name, n + 1)
        out[name] = (w, lvl, n, lhs, rhs)
    # every eta side runs through q^n: the four-squares and Williams
    # quotients start at q^0, the derivative ones at q^1 and q^2
    n = bound(2, 4)
    out["jacobi-four-squares"] = (
        2, 4, n, _quotient_series(JACOBI_QUOTIENT, 4, n + 1),
        EisensteinElement(2, 4, JACOBI_ELEMENT).expansion(n + 1),
    )
    n = bound(2, 12)
    out["williams-table-no24"] = (
        2, 12, n, _quotient_series(WILLIAMS_QUOTIENT, 12, n + 1),
        EisensteinElement(2, 12, WILLIAMS_ELEMENT).expansion(n + 1),
    )
    n = bound(2, 4)
    out["eta-derivative-level4"] = (
        2, 4, n, _d(_quotient_series(DERIV4_INPUT, 4, n)), _quotient_series(DERIV4_OUTPUT, 4, n)
    )
    n = bound(2, 12)
    out["eta-derivative-level12"] = (
        2, 12, n, _d(_quotient_series(DERIV12_INPUT, 12, n - 1)),
        _quotient_series(DERIV12_OUTPUT, 12, n - 1) * 2,
    )
    return out


def layout(x: QSeries):
    return x.offset, x.coeffs, x.den, x.prec


@pytest.mark.parametrize("prec", [12, 60, None])
def test_identity_tables_match_hand_written_suite(prec):
    reference = identity_sides_reference(prec)
    rows = {name: rest for name, *rest in eisenstein._identity_rows()}
    assert rows.keys() == reference.keys()
    for name, (w, lvl, sides) in rows.items():
        rw, rlvl, rn, rlhs, rrhs = reference[name]
        assert (w, lvl) == (rw, rlvl), name
        lhs, rhs = sides(rn)
        assert layout(lhs) == layout(rlhs), name
        assert layout(rhs) == layout(rrhs), name


def test_identity_table_error_is_reported(monkeypatch, capsys):
    # D(E_2) has no constant term, so a wrong D coefficient first shows
    # at q^1: (-1/2 - (-1/3)) * sigma_1(1) = -1/6
    a, b, c, _ = eisenstein.CONVOLUTIONS["besge-e2-square"]
    monkeypatch.setitem(
        eisenstein.CONVOLUTIONS, "besge-e2-square", (a, b, c, {1: Fraction(-1, 3)})
    )
    check = next(x for x in verify_identities() if x.identity == "besge-e2-square")
    assert check.status == "mismatch"
    assert check.first_mismatch == "q^(24/24) coefficient differs by -1/6"
    assert main(["verify", "--suite", "identities"]) == 1
    out = capsys.readouterr().out
    assert "first_mismatch: q^(24/24) coefficient differs by -1/6" in out
    assert "identities_ok: False" in out


# The theta-power checks as they were computed before they became
# table rows: theta(z) = eta(2z)^5 / (eta(z)^2 eta(4z)^2) raised to 2k,
# against the weight-2k representation-by-squares combination.
THETA_QUOTIENT = {1: -2, 2: 5, 4: -2}


def theta_power_sides(k: int) -> tuple[EtaQuotient, EisensteinElement]:
    """theta^(2k) and -2k/B_2k * (s, -(s+1), 2^2k)/(2^2k - 1), s = (-1)^k."""
    theta_pow = EtaQuotient(4, {t: 2 * k * r for t, r in THETA_QUOTIENT.items()})
    kk = 2 * k
    denom = Fraction(2**kk - 1)
    sign = Fraction((-1) ** k)
    combo = {
        1: sign / denom,
        2: -(sign + 1) / denom,
        4: Fraction(2**kk) / denom,
    }
    scale = Fraction(-kk) / bernoulli(kk)  # -2k/B_2k with kk = 2k
    return theta_pow, EisensteinElement(kk, 4, {t: scale * c for t, c in combo.items()})


def _theta_power_remainder(k: int, prec: int) -> Fraction:
    """Constant term of theta^(2k) minus its Eisenstein principal part.

    The classical representation-by-squares expression for theta^(2k)
    is exact only for 2k in {2, 4} up to a weight-2k remainder series;
    this returns the constant-term discrepancy (expected 1/2).
    """
    theta_pow, element = theta_power_sides(k)
    lhs = theta_pow.expansion(prec + 1)
    rhs = element.expansion(prec)
    return (lhs - rhs).coeff(0)


def test_theta_table_rows_follow_the_formula():
    for k in (1, 2):
        theta_pow, element = theta_power_sides(k)
        name = f"theta-power-eisenstein-part-2k{2 * k}"
        level, weight, r, coeffs = eisenstein.THETA_REMAINDERS[name]
        assert EtaQuotient(level, r) == theta_pow
        assert EisensteinElement(weight, level, coeffs) == element


@pytest.mark.parametrize("prec", [1, 2, 12, 50, 75, None])
def test_theta_table_matches_remainder_reference(prec):
    if prec is not None and prec < 4:
        # below the Sturm bound 4 of the weight-2 equalities at level 12
        with pytest.raises(ValueError, match="Sturm bound"):
            verify_identities(prec)
        return
    checks = {c.identity: c for c in verify_identities(prec)}
    for k in (1, 2):
        name = f"theta-power-eisenstein-part-2k{2 * k}"
        const = _theta_power_remainder(k, 1)
        assert const == Fraction(1, 2)
        note = f"non-modular remainder; constant-term discrepancy {const}"
        # only the constant term is compared
        assert checks[name] == IdentityCheck(name, 2 * k, 4, 0, "remainder", note=note)


def test_theta_table_error_is_reported(monkeypatch):
    level, weight, r, _ = eisenstein.THETA_REMAINDERS["theta-power-eisenstein-part-2k2"]
    monkeypatch.setitem(
        eisenstein.THETA_REMAINDERS,
        "theta-power-eisenstein-part-2k2",
        (level, weight, r, {1: 2, 4: -8}),
    )
    check = next(x for x in verify_identities() if x.identity == "theta-power-eisenstein-part-2k2")
    assert check.status == "mismatch"
    assert check.note == "non-modular remainder; constant-term discrepancy 3/4"


def test_identity_suite_custom_precision():
    checks = verify_identities(prec=12)
    assert all(c.bound == (0 if c.status == "remainder" else 12) for c in checks)
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
