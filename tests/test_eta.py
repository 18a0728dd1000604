"""Eta quotients: weights, expansions, cusp orders (with the valence-sum
identity as the structural oracle), modularity criteria, and the
logarithmic derivative."""

import random
import re
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from etaq import eta as eta_module, kernels
from etaq.arith import divisors, sigma_range
from etaq.eisenstein import EisensteinElement
from etaq.eta import EtaQuotient, ModularityReport, parse_eta
from qseries_reference import QSeries as OldQSeries, assert_matches_reference, eta_series as old_eta_series
from test_series import agrees_with, substitute_power

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


def rescale(f: EtaQuotient, t0: int) -> EtaQuotient:
    """The former EtaQuotient.rescale: f(t0 z), the exponent at t moving
    to t*t0 and the level multiplying by t0."""
    return EtaQuotient(f.level * t0, {t * t0: r for t, r in f.exponents.items()})


def order_at_denominator(f: EtaQuotient, c: int) -> Fraction:
    """The former EtaQuotient.order_at_denominator: the width-normalized
    order at any cusp a/c, read off order_map24."""
    if c < 1 or f.level % c:
        raise ValueError(f"cusp denominator {c} must divide level {f.level}")
    return Fraction(f.order_map24()[c], 24)


def test_weights():
    assert JACOBI.weight() == 2
    assert EtaQuotient(4, {1: -4, 2: 2}).weight() == -1
    assert EtaQuotient(4, {}).weight() == 0


def test_level_divisor_validation():
    with pytest.raises(ValueError):
        EtaQuotient(4, {3: 1})


def test_inexact_exponents_are_rejected():
    # 2.7 was stored as 2 through int(); every non-integer now names its term
    for exps, term in (({1: 2.7}, "eta(1)^2.7"), ({2.0: 1}, "eta(2.0)^1"),
                       ({1: Fraction(2)}, "eta(1)^Fraction(2, 1)")):
        with pytest.raises(TypeError, match=re.escape(term)):
            EtaQuotient(4, exps)


def test_divisor_must_be_positive():
    # -2 divides 4 and 0 divides nothing, but neither is an eta argument
    for exps in ({-2: 1, 1: 2}, {0: 1}, {-1: 0}):
        with pytest.raises(ValueError, match="the t in eta"):
            EtaQuotient(4, exps)
    with pytest.raises(ValueError, match="bad eta argument in 'eta\\(0\\)\\^2'"):
        parse_eta("eta(0)^2")


def test_expansion_jacobi():
    ex = JACOBI.expansion(9)
    # four-squares representation counts
    assert [ex.coeff(n) for n in range(8)] == [1, 8, 24, 32, 24, 48, 96, 64]


def test_expansion_offsets():
    f = EtaQuotient(4, {2: -4, 4: 8})
    ex = f.expansion(4)
    assert (ex.offset, ex.valuation(), ex.prec) == (24, 0, 4)  # q + ... + O(q^5)
    assert EtaQuotient(1, {}).expansion(1).coeff(0) == 1
    for steps in (0, -1):
        with pytest.raises(ValueError, match="prec must be >= 1"):
            f.expansion(steps)


def product_expansion(f: EtaQuotient, steps: int) -> OldQSeries:
    """Reference: the product of pentagonal series eta(tz)^r_t on the
    former scale-24 lattice, with Newton inverses for negative exponents,
    through steps q-steps past f's leading exponent."""
    rel = 24 * steps
    out = OldQSeries.one(24, rel)
    for t, r in f.exponents.items():
        nterms = -(-rel // t)  # eta(tz) advances in steps of t
        out = out * old_eta_series(1 + nterms, 24).substitute_power(t) ** r
    return out.truncate(f.offset() + rel)


def test_expansion_matches_product_reference():
    rng = random.Random(2024)
    cases = [EtaQuotient(1, {}), EtaQuotient(4, {1: -12, 2: -12, 4: -12})]
    for n in (1, 2, 4, 8, 16, 3, 9, 27, 25, 49, 12):
        for _ in range(10):
            cases.append(EtaQuotient(n, {t: rng.randint(-12, 12) for t in divisors(n)}))
    assert any(f.offset() < 0 for f in cases) and any(not f.exponents for f in cases)
    for f in cases:
        steps = rng.randint(1, 13)
        got = f.expansion(steps)
        assert (got.offset, got.prec) == (f.offset(), steps), f
        assert_matches_reference(got, product_expansion(f, steps))


def recurrence_expansion(f: EtaQuotient, steps: int) -> list[int]:
    """Reference: the former EtaQuotient.expansion, which summed the
    recurrence n c_n = sum_{k=1}^{n} b_k c_(n-k) over the whole history
    at every step."""
    sig = sigma_range(1, steps)
    b = [0] * steps
    for t, r in f.exponents.items():
        for m in range(1, (steps - 1) // t + 1):
            b[t * m] += -t * r * sig[m]
    c = [1] + [0] * (steps - 1)
    for j in range(1, steps):
        s = sum(map(mul, b[1 : j + 1], c[j - 1 :: -1]))
        c[j], rem = divmod(s, j)
        assert not rem
    return c


def test_expansion_matches_recurrence_reference_across_blocks():
    # step counts on both sides of the first two block boundaries (blocks
    # of _BLOCK steps, the last one running to the end), and two counts
    # that end in a longer last block
    block = eta_module._BLOCK
    sizes = [1, 2, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1,
             3 * block - 1, 3 * block, 200, 333]
    rng = random.Random(29)
    for steps in sizes:
        for n in (1, 2, 4, 6, 12, 16, 25):
            f = EtaQuotient(n, {t: rng.randint(-12, 12) for t in divisors(n)})
            got = f.expansion(steps)
            assert (got.offset, got.den) == (f.offset(), 1)
            assert list(got.coeffs) == recurrence_expansion(f, steps), (f, steps)


def test_expansion_blocks_are_pinned(monkeypatch):
    # blocks start at 1 and at the multiples of max(48, steps // 8) that
    # leave a whole block after them; the first block reads the b_j
    # directly, every later one takes its head from one window of c * b
    assert (eta_module._BLOCK, eta_module._BLOCKS) == (48, 8)
    calls = []
    real = eta_module.conv_trunc
    monkeypatch.setattr(
        eta_module, "conv_trunc", lambda xs, ys, hi, lo=0: calls.append((lo, hi)) or real(xs, ys, hi, lo)
    )
    f = EtaQuotient(1, {1: 24})
    expected = {
        95: [],
        96: [(48, 96)],
        200: [(48, 96), (96, 144), (144, 200)],
        800: [(100, 200), (200, 300), (300, 400), (400, 500), (500, 600), (600, 700), (700, 800)],
        803: [(100, 200), (200, 300), (300, 400), (400, 500), (500, 600), (600, 700), (700, 803)],
    }
    for steps, heads in expected.items():
        calls.clear()
        f.expansion(steps)
        assert calls == heads, steps


@pytest.mark.parametrize(
    "text, steps, regimes",
    [
        ("eta(1)^-24", 600, {"kronecker", "dots"}),  # digits pass 256 bits on the way
        ("eta(2)^40*eta(1)^-16*eta(4)^-16", 1000, {"kronecker"}),  # theta^8
    ],
)
def test_deep_expansions_match_recurrence_reference(monkeypatch, text, steps, regimes):
    used = set()
    for name in ("kronecker", "dots"):
        real = getattr(kernels, f"_{name}")
        monkeypatch.setattr(
            kernels, f"_{name}", lambda *a, real=real, name=name: used.add(name) or real(*a)
        )
    f = parse_eta(text)
    assert list(f.expansion(steps).coeffs) == recurrence_expansion(f, steps)
    assert used == regimes


def test_expansion_matches_eisenstein_combination():
    # eta(2)^16/eta(1)^8 = E4(z) - E4(2z)
    f = EtaQuotient(2, {1: -8, 2: 16})
    lhs = f.expansion(12)  # q + ... + O(q^13)
    rhs = EisensteinElement(4, 2, {1: 1, 2: -1}).expansion(13)
    assert agrees_with(lhs, rhs)


def test_order_at_denominator_examples():
    assert order_at_denominator(JACOBI, 2) == 1
    assert order_at_denominator(JACOBI, 1) == 0
    assert order_at_denominator(JACOBI, 4) == 0
    with pytest.raises(ValueError):
        order_at_denominator(JACOBI, 3)


def order_reference(f, c):
    """Width-normalized order at a/c, summed one Fraction per term."""
    n = f.level
    acc = sum(Fraction(gcd(c, t) ** 2, t) * r for t, r in f.exponents.items())
    return Fraction(n, 24 * gcd(c * c, n)) * acc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_order_at_denominator_matches_reference(data):
    # prime powers, composites and squarefull levels; sparse and dense
    # exponent vectors, including cancelling and large exponents
    n = data.draw(st.sampled_from([1, 2, 4, 12, 16, 18, 27, 30, 36, 49, 60, 125, 144]))
    divs = divisors(n)
    support = data.draw(st.lists(st.sampled_from(divs), unique=True))
    exps = {t: data.draw(st.integers(-10**6, 10**6)) for t in support}
    f = EtaQuotient(n, exps)
    for c in divs:
        got = order_at_denominator(f, c)
        assert type(got) is Fraction
        assert got == order_reference(f, c)
    assert f.is_modular_on_gamma0().order_map == {c: order_reference(f, c) for c in divs}


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
        ex = f.expansion(2)
        assert ex.offset + 24 * ex.valuation() == f.offset()
        assert Fraction(f.offset(), 24) == order_at_denominator(f, n)


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


def modularity_reference(f: EtaQuotient) -> ModularityReport:
    """The former is_modular_on_gamma0: prod_t t^(r_t) from Fraction
    powers, tested for a rational square."""
    n = f.level
    su = sum(t * r for t, r in f.exponents.items())
    sv = sum((n // t) * r for t, r in f.exponents.items())
    w2 = sum(f.exponents.values())
    prod = Fraction(1)
    for t, r in f.exponents.items():
        prod *= Fraction(t) ** r
    square = prod > 0 and all(isqrt(v) ** 2 == v for v in (prod.numerator, prod.denominator))
    conditions = (
        ("sum t*r_t = 0 mod 24", su % 24 == 0),
        ("sum (N/t)*r_t = 0 mod 24", sv % 24 == 0),
        ("even integer weight", w2 % 4 == 0),
        ("trivial character", square),
    )
    return ModularityReport(Fraction(w2, 2), conditions, f.order_map24())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_modularity_matches_fraction_reference(data):
    # squarefree and squarefull levels: the odd-exponent product must
    # decide the character exactly as prod t^(r_t) did, including
    # cancellations such as eta(2) eta(3) / eta(6)
    n = data.draw(st.sampled_from([1, 4, 6, 12, 16, 18, 30, 36, 60, 72, 125, 210]))
    support = data.draw(st.lists(st.sampled_from(divisors(n)), unique=True))
    # exponents in 24Z pass the four criteria, so holomorphy decides
    unit = data.draw(st.sampled_from([1, 24]))
    f = EtaQuotient(n, {t: unit * data.draw(st.integers(-40, 40)) for t in support})
    expect = modularity_reference(f)
    assert f.is_modular_on_gamma0() == expect
    # the bool the search and match_eta read
    assert f.is_modular() == expect.is_modular


def test_character_cancellation():
    # 2 * 3 / 6 = 1 is a square although neither 2 * 3 nor 6 is
    f = EtaQuotient(6, {2: 1, 3: 1, 6: -1})
    rep = f.is_modular_on_gamma0()
    assert dict(rep.conditions)["trivial character"]
    assert rep == modularity_reference(f)
    assert f.is_modular() == rep.is_modular


def test_rescale_power_primitive():
    f = EtaQuotient(1, {1: -2})
    g = rescale(f, 2)
    assert g.level == 2 and g.exponents == {2: -2}
    assert not g.is_primitive()
    assert shrink(g) == f
    assert EtaQuotient(4, {1: -4, 2: 2}).is_primitive()
    assert not EtaQuotient(4, {}).is_primitive()


def test_rescale_matches_substitution():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.choice([1, 2, 3, 4])
        exps = {t: rng.randint(-3, 3) for t in divisors(n)}
        f = EtaQuotient(n, exps)
        t0 = rng.randint(1, 3)
        g = rescale(f, t0)
        lhs = g.expansion(4 * t0)
        rhs = substitute_power(f.expansion(4), t0)
        assert agrees_with(lhs, rhs)


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
        ef = f.expansion(prec_q)
        lhs = ef.ramanujan_d()
        rhs = ef * el.expansion(prec_q + 1)
        assert agrees_with(lhs, rhs)


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
