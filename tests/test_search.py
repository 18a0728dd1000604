"""Classification searches: enumeration against the published lists,
dual pairs, and the level-4 second-derivative solutions (including the
certified solutions the published uniqueness claim does not list; see
the acceptance suite for the full discussion)."""

import random
from fractions import Fraction

import pytest

from etaq.eta import EtaQuotient
from etaq.search import (
    EXCLUDED_CELLS,
    REFERENCE_ANTIDERIVATIVES,
    antiderivative,
    classify_second_derivatives_level4,
    dual_pairs_prime_power,
    enumerate_eta_in_e,
    level4_targets,
    order_matrix,
    second_derivative_ratio,
    verify_classification_lists,
)


def _freeze(exps):
    return tuple(sorted(exps.items()))


def det(a) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return out


def test_order_matrix_nonsingular():
    for p in (2, 3, 5, 7):
        for m in range(0, 6):
            assert det(order_matrix(p, m)) != 0


def test_order_matrix_against_eta_orders():
    rng = random.Random(8)
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        a = order_matrix(p, m)
        for _ in range(10):
            r = [rng.randint(-6, 6) for _ in range(m + 1)]
            f = EtaQuotient(p**m, {p**j: r[j] for j in range(m + 1)})
            for i in range(m + 1):
                expect = sum(a[i][j] * r[j] for j in range(m + 1))
                assert f.order_at_denominator(p**i) == expect


def test_weight2_level4_search():
    res = enumerate_eta_in_e(2, 2, 2)
    maps = {_freeze(e) for e in res.exponent_maps()}
    assert maps == {
        _freeze({1: -8, 2: 20, 4: -8}),
        _freeze({1: 8, 2: -4}),
        _freeze({2: -4, 4: 8}),
    }
    by_map = {_freeze(sp.eta.exponents): sp for sp in res.pairs}
    jac = by_map[_freeze({1: -8, 2: 20, 4: -8})]
    assert jac.element.coeffs == {1: 8, 4: -32}
    corrected = by_map[_freeze({1: 8, 2: -4})]
    assert corrected.element.coeffs == {1: -8, 2: 48, 4: -64}
    imprimitive = by_map[_freeze({2: -4, 4: 8})]
    assert not imprimitive.eta_primitive
    assert imprimitive.element.coeffs == {1: 1, 2: -3, 4: 2}


def test_weight2_empty_at_level2():
    assert enumerate_eta_in_e(2, 2, 1).pairs == ()


def test_weight4_level2_search():
    res = enumerate_eta_in_e(4, 2, 1)
    maps = {_freeze(e) for e in res.exponent_maps()}
    assert maps == {_freeze({1: -8, 2: 16}), _freeze({1: 16, 2: -8})}


def test_excluded_cells_empty():
    for k, p, m in EXCLUDED_CELLS:
        assert enumerate_eta_in_e(k, p, m).pairs == (), (k, p, m)


def test_classification_report():
    report = verify_classification_lists()
    assert report.ok
    assert report.weight2_counts == {4: 3, 8: 4, 9: 1, 16: 4}
    assert report.weight4_exact
    # the single discrepancy: printed eta(1)^4 (not a trivial-character
    # weight-2 form), corrected by the certified eta(1)^8 eta(2)^-4
    assert [sorted(e.items()) for e in report.weight2_missing] == [[(1, 4)]]
    assert [_freeze(sp.eta.exponents) for sp in report.weight2_extra] == [
        _freeze({1: 8, 2: -4})
    ]
    assert len(report.weight2_matched) == 11
    js = report.to_json()
    assert js["ok"] and js["weight4_exact"]


def test_antiderivative_examples():
    # the four-squares combination integrates to eta(4)^8/eta(1)^8
    dp = antiderivative(EtaQuotient(4, {1: -8, 2: 20, 4: -8}))
    assert dp.f.exponents == {1: -8, 4: 8}
    assert dp.scalar == 1
    assert dp.g.exponents == {1: -16, 2: 20}

    dp = antiderivative(EtaQuotient(9, {1: -3, 3: 10, 9: -3}))
    assert dp.f.exponents == {1: -3, 9: 3}
    assert dp.scalar == 1

    # fractional basis coefficients force the minimal clearing scalar
    dp = antiderivative(EtaQuotient(4, {2: -4, 4: 8}))
    assert dp.f.exponents == {1: -2, 2: 3, 4: -1}
    assert dp.scalar == 2


def test_antiderivative_level12():
    # the level-12 combination from the identity suite
    dp = antiderivative(EtaQuotient(12, {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4}))
    assert dp.f.exponents == {1: -4, 2: 3, 4: -2, 6: -3, 12: 6}
    assert dp.scalar == 2
    assert dp.g.exponents == {1: -6, 2: 5, 3: -2, 4: 2, 6: 3, 12: 2}


def test_antiderivative_rejects_non_weight2():
    with pytest.raises(ValueError):
        antiderivative(EtaQuotient(2, {1: -8, 2: 16}))  # weight 4


def test_dual_pairs_match_published_list():
    pairs = dual_pairs_prime_power()
    assert len(pairs) == 12
    found = {_freeze(dp.f.exponents) for dp in pairs}
    assert found == {_freeze(e) for e in REFERENCE_ANTIDERIVATIVES}
    for dp in pairs:
        assert dp.f.weight() == 0 and dp.g.weight() == 2
        assert dp.scalar != 0


def test_dual_pair_log_derivative_round_trip():
    # D(f)/f recovers the matched combination of the source quotient
    from etaq.eisenstein import match_eta

    for dp in dual_pairs_prime_power():
        ld = dp.f.log_derivative()
        assert ld.weight_zero
        matched = match_eta(dp.source)
        assert matched is not None
        scaled = {t: dp.scalar * r for t, r in matched.coeffs.items()}
        assert {t: v for t, v in ld.coeffs.items() if v} == {
            t: v for t, v in scaled.items() if v
        }


def test_second_derivative_ratio_examples():
    assert second_derivative_ratio((-4, 2, 0)) == (4, -4, 0)
    assert second_derivative_ratio((0, -2, 0)) == (0, Fraction(20, 3), 0)
    assert second_derivative_ratio((-2, 0, 0)) == (Fraction(5, 3), 0, 0)
    with pytest.raises(ValueError):
        second_derivative_ratio((1, 1, 1))


def test_second_derivative_ratio_against_series():
    # direct-series oracle: D^2(f)/f expanded and compared exactly for
    # 200 random constrained triples with |r_i| <= 10, 60 q-exponents
    from etaq.eisenstein import EisensteinElement

    rng = random.Random(12)
    done = 0
    while done < 200:
        r1 = rng.randint(-10, 10)
        r2 = rng.randint(-10, 10)
        r4 = -2 - r1 - r2
        if abs(r4) > 10:
            continue
        done += 1
        s = second_derivative_ratio((r1, r2, r4))
        f = EtaQuotient(4, {1: r1, 2: r2, 4: r4})
        prec_q = 60
        ef = f.expansion(f.offset() + 24 * prec_q)
        lhs = ef.ramanujan_d().ramanujan_d()
        combo = EisensteinElement(4, 4, {1: s[0], 2: s[1], 4: s[2]})
        rhs = ef * combo.expansion(prec_q + 1, scale=24)
        assert lhs.agrees_with(rhs)


def test_level4_targets():
    targets = level4_targets()
    assert len(targets) == 6
    directions = {tuple(Fraction(x) for x in ts) for _, ts in targets}
    assert (Fraction(1), Fraction(-1), Fraction(0)) in directions
    assert (Fraction(0), Fraction(1), Fraction(-1)) in directions


def test_classification_second_derivatives():
    sols = classify_second_derivatives_level4()
    by_r = {sol.r: sol for sol in sols}
    # the published solution and its rescaling
    assert (-4, 2, 0) in by_r
    assert by_r[(-4, 2, 0)].scalar == 4
    assert by_r[(-4, 2, 0)].target.exponents == {1: -8, 2: 16}
    assert (0, -4, 2) in by_r and not by_r[(0, -4, 2)].primitive
    # certified solutions beyond the published uniqueness claim
    assert (2, -4, 0) in by_r
    assert by_r[(2, -4, 0)].scalar == Fraction(1, 16)
    assert (-2, 2, -2) in by_r
    assert (4, -10, 4) in by_r and by_r[(4, -10, 4)].scalar == -4
    assert set(by_r) == {
        (-4, 2, 0),
        (-2, 2, -2),
        (0, -4, 2),
        (0, 2, -4),
        (2, -4, 0),
        (4, -10, 4),
    }


def test_classification_deterministic():
    a = classify_second_derivatives_level4(bound=20)
    b = classify_second_derivatives_level4(bound=20)
    assert [sol.r for sol in a] == [sol.r for sol in b]
    # enumeration stays stable when the bound grows
    c = classify_second_derivatives_level4(bound=30)
    assert [sol.r for sol in a] == [sol.r for sol in c]


def test_search_result_json_schema():
    res = enumerate_eta_in_e(2, 3, 2)
    js = res.to_json()
    assert js["k"] == 2 and js["p"] == 3 and js["m"] == 2
    assert js["pairs"][0]["eta"]["exponents"] == {"1": -3, "3": 10, "9": -3}
    assert set(js["pairs"][0]) >= {"eta", "eisenstein", "bound"}
