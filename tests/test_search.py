"""Classification searches: enumeration against the published lists,
dual pairs, and the level-4 second-derivative solutions (including the
certified solutions the published uniqueness claim does not list; see
the acceptance suite for the full discussion)."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import etaq.search
from etaq.arith import totient
from etaq.cusps import per_cusp_cap
from etaq.eisenstein import CONVOLUTIONS, MembershipTag, match_eta
from etaq.eta import EtaQuotient
from etaq.linalg import mat_inverse
from etaq.series import QSeries
from etaq.search import (
    EXCLUDED_CELLS,
    REFERENCE_ANTIDERIVATIVES,
    REFERENCE_WEIGHT4,
    WEIGHT2_CELLS,
    WEIGHT4_CELLS,
    _integer_roots,
    _integral_exponents,
    _lower_hnf,
    _order_matrix24,
    _ratio12,
    _ratio12_form,
    _ratio12_in_r2,
    _certify_second_derivative,
    _second_derivative_hits,
    _value,
    antiderivative,
    classify_second_derivatives_level4,
    dual_pairs_prime_power,
    enumerate_eta_in_e,
    level4_targets,
    second_derivative_ratio,
    verify_classification_lists,
)
from test_eisenstein import match_eta_reference, match_outcome
from test_eta import order_at_denominator, rescale
from test_series import agrees_with


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


def order_matrix(p: int, m: int) -> list[list[Fraction]]:
    """The former search.order_matrix: entry (i, j) is the width-normalized
    order of eta(p^j z) at denominator p^i on Gamma0(p^m), in Fractions."""
    n = p**m
    rows = []
    for i in range(m + 1):
        c = p**i
        pref = Fraction(n, 24 * gcd(c * c, n))
        rows.append([pref * Fraction(gcd(c, p**j) ** 2, p**j) for j in range(m + 1)])
    return rows


def test_walk_matrix_matches_fraction_reference():
    for p in (2, 3, 5, 7):
        for m in range(0, 6):
            assert _order_matrix24(p, m) == [[24 * x for x in row] for row in order_matrix(p, m)]


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
                assert order_at_denominator(f, p**i) == expect


def test_lower_hnf():
    rng = random.Random(31)
    mats = [[[int(24 * x) for x in row] for row in order_matrix(p, m)]
            for p in (2, 3, 5, 7) for m in range(0, 6)]
    while len(mats) < 60:
        size = rng.randint(1, 5)
        b = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        if det(b) != 0:
            mats.append(b)
    for b in mats:
        h, u = _lower_hnf(b)
        size = len(b)
        assert abs(det(u)) == 1
        assert h == [[sum(b[i][l] * u[l][j] for l in range(size)) for j in range(size)]
                     for i in range(size)]
        for i in range(size):
            assert h[i][i] > 0
            assert all(h[i][j] == 0 for j in range(i + 1, size))
            assert all(0 <= h[i][j] < h[i][i] for j in range(i))


def order_bound_caps(p, m):
    return [per_cusp_cap(p**m, p**i) for i in range(m + 1)]


def grid_walk_exponents(k, p, m, step=1):
    """Reference for the lattice walk: every order vector on the grid
    (step/24)Z under the caps with the valence total, pushed through the
    inverse order map; the integral images, in grid order.  step = 1 is
    the full (1/24)Z grid, step = 24 the grid of whole orders."""
    n = p**m
    mult = [totient(gcd(p**i, p ** (m - i))) for i in range(m + 1)]
    caps = [24 // step * (2 if (n == 4 and i == 1) else 1) for i in range(m + 1)]
    target, rem = divmod(2 * k * (n + n // p) if m >= 1 else 2 * k, step)
    if rem:
        return []
    ainv = mat_inverse(order_matrix(p, m))
    denom = 1
    for row in ainv:
        for x in row:
            denom = lcm(denom, (x / 24).denominator)
    t_int = [[int(x / 24 * denom) for x in row] for row in ainv]
    suffix = [0] * (m + 2)
    for i in range(m, -1, -1):
        suffix[i] = suffix[i + 1] + mult[i] * caps[i]
    out = []
    nvec = [0] * (m + 1)

    def rec(i, remaining):
        if i == m + 1:
            if remaining == 0:
                rvals = []
                for j in range(m + 1):
                    s = sum(t_int[j][l] * step * nvec[l] for l in range(m + 1))
                    if s % denom:
                        return
                    rvals.append(s // denom)
                if any(rvals):
                    out.append(rvals)
            return
        lo = max(0, -(-(remaining - suffix[i + 1]) // mult[i]))
        hi = min(caps[i], remaining // mult[i])
        for v in range(lo, hi + 1):
            nvec[i] = v
            rec(i + 1, remaining - mult[i] * v)

    rec(0, target)
    return out


def grid_walk_pairs(k, p, m, candidates):
    """Reference acceptance: the search's checks on the grid candidates."""
    n = p**m
    pairs = []
    for rvals in candidates:
        quotient = EtaQuotient(n, {p**j: r for j, r in enumerate(rvals)})
        if quotient.weight() != k or not quotient.is_modular_on_gamma0().is_modular:
            continue
        element = match_eta(quotient)
        if element is None or element.classify() is not MembershipTag.IN_P:
            continue
        pairs.append((quotient.key(), element.to_json(), quotient.is_primitive()))
    return sorted(pairs)


PUBLISHED_CELLS = WEIGHT2_CELLS + WEIGHT4_CELLS + EXCLUDED_CELLS
UNPUBLISHED_CELLS = sorted(
    {(k, p, m) for k in (2, 4, 6, 8, 10)
     for p, m in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 2), (3, 3)]}
    - set(PUBLISHED_CELLS)
)


@pytest.mark.parametrize("cell", PUBLISHED_CELLS + UNPUBLISHED_CELLS, ids=str)
def test_lattice_walk_matches_grid_walk(cell):
    # the walk visits exactly the whole-order grid, and restricting the
    # search to it loses no pair of the full (1/24)Z grid
    k, p, m = cell
    candidates = grid_walk_exponents(k, p, m, step=24)
    assert list(_integral_exponents(k, p, m, order_bound_caps(p, m))) == candidates
    res = enumerate_eta_in_e(k, p, m)
    assert res.candidates_scanned == len(candidates)
    got = [(sp.eta.key(), sp.element.to_json(), sp.eta_primitive) for sp in res.pairs]
    assert got == grid_walk_pairs(k, p, m, grid_walk_exponents(k, p, m))


@pytest.mark.parametrize("cell", PUBLISHED_CELLS, ids=str)
def test_walked_points_have_weight_k_and_nonnegative_orders(cell):
    # the walk's target is the valence total of weight k, so no point it
    # yields may need a weight filter or have a pole at a cusp; its orders
    # are whole, so both mod-24 congruences of the modularity criteria hold
    k, p, m = cell
    n = p**m
    a = order_matrix(p, m)
    for r in _integral_exponents(k, p, m, order_bound_caps(p, m)):
        assert sum(r) == 2 * k, r
        orders = [sum(x * rj for x, rj in zip(row, r)) for row in a]
        assert all(v >= 0 and v.denominator == 1 for v in orders), r
        assert sum(p**j * rj for j, rj in enumerate(r)) % 24 == 0, r
        assert sum(n // p**j * rj for j, rj in enumerate(r)) % 24 == 0, r


@pytest.mark.parametrize("cell", PUBLISHED_CELLS + UNPUBLISHED_CELLS, ids=str)
def test_modular_grid_points_have_whole_orders(cell):
    # the fact the whole-order walk rests on: a holomorphic eta quotient
    # on Gamma0(p^m) with trivial character has a whole order at every cusp
    k, p, m = cell
    a = order_matrix(p, m)
    for r in grid_walk_exponents(k, p, m):
        g = EtaQuotient(p**m, {p**j: rj for j, rj in enumerate(r)})
        if g.is_modular_on_gamma0().is_modular:
            assert all(sum(x * rj for x, rj in zip(row, r)).denominator == 1 for row in a), r


def test_random_modular_quotients_have_whole_orders():
    # the same fact off the walk's grid: 20,000 seeded exponent vectors
    rng = random.Random(13)
    levels = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
              (5, 1), (5, 2), (7, 1), (7, 2)]
    matrices = {pm: order_matrix(*pm) for pm in levels}
    modular = 0
    for _ in range(20000):
        p, m = rng.choice(levels)
        r = [rng.randint(-12, 12) for _ in range(m + 1)]
        g = EtaQuotient(p**m, {p**j: rj for j, rj in enumerate(r)})
        if g.is_modular_on_gamma0().is_modular:
            modular += 1
            a = matrices[p, m]
            assert all(sum(x * rj for x, rj in zip(row, r)).denominator == 1 for row in a), r
    assert modular >= 50


@pytest.mark.parametrize("cell", PUBLISHED_CELLS + UNPUBLISHED_CELLS, ids=str)
def test_match_eta_matches_fraction_reference_on_lattice(cell):
    # every integral point of the (1/24)Z grid, not only the whole orders
    k, p, m = cell
    for r in grid_walk_exponents(k, p, m):
        g = EtaQuotient(p**m, {p**j: rj for j, rj in enumerate(r)})
        assert match_outcome(match_eta, g) == match_outcome(match_eta_reference, g), r


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


def test_search_needs_prime_and_nonnegative_exponent():
    # the walk takes the divisors of p^m to be p^0, ..., p^m, which holds
    # only for a prime p and m >= 0
    for p, m in ((4, 1), (6, 1), (1, 2), (0, 1), (-2, 1), (2, -1)):
        with pytest.raises(ValueError, match="needs a prime p and m >= 0"):
            enumerate_eta_in_e(2, p, m)


def test_weight2_empty_at_level2():
    assert enumerate_eta_in_e(2, 2, 1).pairs == ()


def test_weight4_level2_search():
    res = enumerate_eta_in_e(4, 2, 1)
    maps = {_freeze(e) for e in res.exponent_maps()}
    assert maps == {_freeze({1: -8, 2: 16}), _freeze({1: 16, 2: -8})}


def test_each_walked_point_builds_one_modularity_report(monkeypatch):
    # whole, capped orders leave only the character to test, so each walked
    # point that has it goes to match_eta, which builds its one report
    reports, matches = [], []
    real_report = EtaQuotient.is_modular_on_gamma0
    monkeypatch.setattr(EtaQuotient, "is_modular_on_gamma0", lambda f: reports.append(f) or real_report(f))
    real_match = etaq.search.match_eta
    monkeypatch.setattr(etaq.search, "match_eta", lambda g: matches.append(g) or real_match(g))
    cells = WEIGHT2_CELLS + WEIGHT4_CELLS
    scanned = sum(enumerate_eta_in_e(k, p, m).candidates_scanned for k, p, m in cells)
    assert scanned == len(reports) == len(matches) == 24
    assert reports == matches


def test_excluded_cells_empty():
    for k, p, m in EXCLUDED_CELLS:
        assert enumerate_eta_in_e(k, p, m).pairs == (), (k, p, m)


# the cells the order bound allows beyond the published ones
BOUND_ONLY_CELLS = [(2, 2, 5), (2, 3, 3), (2, 11, 1), (4, 2, 3), (4, 3, 2), (4, 5, 1),
                    (6, 3, 1), (8, 2, 1), (8, 2, 2), (12, 2, 0)]


def test_bound_allows_only_the_published_and_ten_empty_cells():
    # a nonzero weight-k form on Gamma0(p^m) has total cusp order k mu/12
    # (valence formula), so a quotient new at p^m needs k mu <= 12 times
    # the capped orders summed over the cusps; level 1 is (2, 0)
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, isqrt(p) + 1))]
    allowed = []
    for p in primes:
        for m in range(0 if p == 2 else 1, 24):
            if p**m > 10**7:
                break
            mu = p**m + p ** (m - 1) if m else 1
            caps = order_bound_caps(p, m)
            total = sum(totient(gcd(p**i, p ** (m - i))) * caps[i] for i in range(m + 1))
            allowed += [(k, p, m) for k in range(2, 200, 2) if k * mu <= 12 * total]
    assert sorted(allowed) == sorted(PUBLISHED_CELLS + BOUND_ONLY_CELLS)
    for cell in BOUND_ONLY_CELLS:
        assert enumerate_eta_in_e(*cell).pairs == (), cell


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


def antiderivative_reference(g: EtaQuotient) -> tuple[EtaQuotient, Fraction]:
    """The former antiderivative's f and lambda: the match rho of g in
    the basis {E_2(z) - d E_2(dz) : 1 < d | N} with coefficients
    -rho_d/d, scaled by the least lambda clearing denominators, and r_1
    fixed up so that f has weight 0."""
    element = match_eta(g)
    basis = {d: -rho / d for d, rho in element.coeffs.items() if d > 1}
    lam = lcm(*(v.denominator for v in basis.values()))
    exps = {d: int(v * lam) for d, v in basis.items() if v}
    r1 = -sum(exps.values())
    if r1:
        exps[1] = exps.get(1, 0) + r1
    return EtaQuotient(element.level, exps), Fraction(lam)


def test_antiderivative_matches_basis_reference():
    pairs = dual_pairs_prime_power()
    assert len(pairs) == 12
    for dp in pairs:
        assert (dp.f, dp.scalar) == antiderivative_reference(dp.source), dp.source


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


def difference_windows(monkeypatch, run) -> list[tuple[int, int, int]]:
    """(x.offset, y.offset, end) for every difference x - y that run()
    takes, end being the first exponent the difference does not know;
    all three in 1/24 units."""
    seen = []
    sub = QSeries.__sub__

    def spy(x, y):
        d = sub(x, y)
        seen.append((x.offset, y.offset, d.offset + 24 * d.prec))
        return d

    with monkeypatch.context() as m:
        m.setattr(QSeries, "__sub__", spy)
        run()
    return seen


@pytest.mark.parametrize("certify_rel", [480, 720])
def test_dual_pair_certification_depth(monkeypatch, certify_rel):
    # D(f) = lambda f g is compared through exactly ceil(certify_rel/24)
    # q-steps past the later leading exponent; f*g starts one step after
    # f for some pairs, and then f's side is one step longer
    n = -(-certify_rel // 24)
    windows = difference_windows(monkeypatch, lambda: dual_pairs_prime_power(certify_rel))
    assert len(windows) == 12
    assert all(end == max(x, y) + 24 * n for x, y, end in windows)
    assert {(end - min(x, y)) // 24 for x, y, end in windows} == {n, n + 1}


@pytest.mark.parametrize("certify_rel", [48, 240, 360])
def test_second_derivative_certification_depth(monkeypatch, certify_rel):
    # each solution takes two differences, both starting at f's leading
    # exponent x.  The one against the E_4 combination compares exactly the
    # exponents of f's lattice below max(x, 0) + ceil(certify_rel/24): one
    # step more when f starts below q^0.  The one against the target
    # compares ceil(certify_rel/24) q-steps past x, fewer past the target's
    # leading exponent when the target starts later.
    n = -(-certify_rel // 24)
    windows = difference_windows(
        monkeypatch, lambda: classify_second_derivatives_level4(60, certify_rel)
    )
    assert len(windows) == 12
    for (x, _, end), (x2, _, end2) in zip(windows[::2], windows[1::2]):
        b = max(x, 0) + 24 * n
        assert (end - x) % 24 == 0 and end - 24 < b <= end
        assert x2 == x and end2 == x + 24 * n
    assert any(x < 0 for x, _, _ in windows) and any(y > x for x, y, _ in windows)


def test_second_derivative_ratio_check_keeps_f_window(monkeypatch):
    # f = eta(z)^6 eta(4z)^-8 starts at q^(-26/24), two steps below q^0,
    # so 10 steps past q^0 are 12 steps of f, through q^(262/24); the
    # check against the E_4 combination compares all of them.  eta(2z)^12
    # is not D^2(f)/f, so the target check after it fails.
    r = (6, 0, -8)

    def run():
        with pytest.raises(AssertionError, match="target certification failed"):
            _certify_second_derivative(r, second_derivative_ratio(r), EtaQuotient(4, {2: 12}),
                                       Fraction(1), 10)

    assert difference_windows(monkeypatch, run)[0] == (-26, -26, 262)


def test_second_derivative_ratio_examples():
    assert second_derivative_ratio((-4, 2, 0)) == (4, -4, 0)
    assert second_derivative_ratio((0, -2, 0)) == (0, Fraction(20, 3), 0)
    assert second_derivative_ratio((-2, 0, 0)) == (Fraction(5, 3), 0, 0)
    with pytest.raises(ValueError):
        second_derivative_ratio((1, 1, 1))


def second_derivative_ratio_reference(r):
    """The former Fraction-coefficient formula."""
    r1, r2, r4 = r
    s1 = Fraction(5, 12) * r1 * r1 + Fraction(1, 3) * r1 * r2 + Fraction(1, 6) * r1 * r4
    s2 = (
        Fraction(5, 3) * r2 * r2
        + Fraction(4, 3) * r1 * r2
        + Fraction(1, 2) * r1 * r4
        + Fraction(4, 3) * r2 * r4
    )
    s4 = Fraction(20, 3) * r4 * r4 + Fraction(8, 3) * r1 * r4 + Fraction(16, 3) * r2 * r4
    return (s1, s2, s4)


def test_second_derivative_ratio_matches_fraction_formula():
    for r1 in range(-15, 16):
        for r2 in range(-15, 16):
            r = (r1, r2, -2 - r1 - r2)
            assert second_derivative_ratio(r) == second_derivative_ratio_reference(r)


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
        ef = f.expansion(prec_q)
        lhs = ef.ramanujan_d().ramanujan_d()
        combo = EisensteinElement(4, 4, {1: s[0], 2: s[1], 4: s[2]})
        rhs = ef * combo.expansion(prec_q + 1)
        assert agrees_with(lhs, rhs)


def fraction_loop_hits(bound):
    """Reference for the integer proportionality test: the former ratio
    formula divided by each target direction in Fractions, first target
    wins."""
    hits = []
    targets = level4_targets()
    for r1 in range(-bound, bound + 1):
        for r2 in range(-bound, bound + 1):
            r4 = -2 - r1 - r2
            if abs(r4) > bound:
                continue
            r = (r1, r2, r4)
            s = second_derivative_ratio_reference(r)
            if all(x == 0 for x in s):
                continue
            for q, ts in targets:
                scalar = None
                ok = True
                for sv, tv in zip(s, ts):
                    if tv == 0:
                        if sv != 0:
                            ok = False
                            break
                    else:
                        c = sv / tv
                        if scalar is None:
                            scalar = c
                        elif c != scalar:
                            ok = False
                            break
                if ok and scalar:
                    hits.append((r, q, scalar, s))
                    break
    return sorted(hits, key=lambda hit: hit[0])


@pytest.mark.parametrize("bound", [6, 20, 30, 60])
def test_integer_proportionality_matches_fraction_loop(bound):
    sols = classify_second_derivatives_level4(bound, certify_rel=48)
    got = [(sol.r, sol.target, sol.scalar, sol.s) for sol in sols]
    assert got == fraction_loop_hits(bound)
    assert all(type(x) is Fraction for sol in sols for x in (sol.scalar, *sol.s))


def hand_ratio12(r1, r2, r4):
    """The former etaq.search._ratio12: 12 times the ratio, derived by
    hand from the Besge and Huard-Ou-Spearman-Williams identities."""
    return (
        r1 * (5 * r1 + 4 * r2 + 2 * r4),
        20 * r2 * r2 + 16 * r1 * r2 + 6 * r1 * r4 + 16 * r2 * r4,
        16 * r4 * (5 * r4 + 2 * r1 + 4 * r2),
    )


def square_scan_hits(bound, directions, ratio=hand_ratio12):
    """The square scan _second_derivative_hits replaced: every (r1, r2)
    with |r_i| <= bound, tested against the directions in order by the
    2x2 minors of ratio, the first match winning."""
    hits = []
    for r1 in range(-bound, bound + 1):
        for r2 in range(-bound, bound + 1):
            r4 = -2 - r1 - r2
            if abs(r4) > bound:
                continue
            s1, s2, s4 = ratio(r1, r2, r4)
            if not (s1 or s2 or s4):
                continue
            for index, (t1, t2, t4) in enumerate(directions):
                if s1 * t2 == s2 * t1 and s1 * t4 == s4 * t1 and s2 * t4 == s4 * t2:
                    hits.append(((r1, r2, r4), index))
                    break
    return hits


def level4_directions():
    out = []
    for _, ts in level4_targets():
        scale = lcm(*(x.denominator for x in ts))
        out.append(tuple(int(x * scale) for x in ts))
    return out


@pytest.mark.parametrize("bound", [*range(46), 60, 120])
def test_root_search_matches_square_scan(bound):
    directions = level4_directions()
    assert _second_derivative_hits(bound, directions) == square_scan_hits(bound, directions)


def _reduced(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


# directions that some small r is parallel to, so that random lists of
# directions have hits and ties between them
HIT_DIRECTIONS = sorted(
    {
        d
        for r1 in range(-12, 13)
        for r2 in range(-12, 13)
        if any(s := hand_ratio12(r1, r2, -2 - r1 - r2))
        and max(map(abs, d := _reduced(s))) <= 30
    }
)
_component = st.one_of(st.just(0), st.integers(-30, 30))
_direction = st.one_of(
    st.tuples(_component, _component, _component).filter(any),
    st.sampled_from(HIT_DIRECTIONS),
    st.sampled_from(HIT_DIRECTIONS).map(lambda d: tuple(-x for x in d)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_direction, min_size=1, max_size=4), st.integers(0, 25))
@example([(1, -1, 0), (-2, 2, 0)], 25)
@example([(0, 0, 1), (1, 0, 0), (0, 1, 0)], 25)
def test_root_search_matches_square_scan_on_random_directions(directions, bound):
    assert _second_derivative_hits(bound, directions) == square_scan_hits(bound, directions)


def test_random_directions_reach_hits():
    # the hypothesis test above compares something: these lists hit
    assert len(HIT_DIRECTIONS) > 20
    assert all(_second_derivative_hits(12, [d]) for d in HIT_DIRECTIONS[:20])


def test_degenerate_rows_are_walked(monkeypatch):
    # a stand-in ratio of total degree 2: at r1 = 5 both minors against
    # (1, 2, 0) vanish identically in r2, and against (2, 4, 1) only the
    # first does
    def ratio(r1, r2, r4):
        return (r2 * r2 + 1, 2 * r2 * r2 + 2 + (r1 - 5) * r2, (r1 - 5) * r2)

    # its quadratics (a, b0, b1, c0, c1, c2) in (r1, r2), as _ratio12_in_r2 gives them
    rows = [(1, 0, 0, 1, 0, 0), (2, -5, 1, 2, 0, 0), (0, -5, 1, 0, 0, 0)]
    assert all(
        tuple(_value(row, r1, r2) for row in rows) == ratio(r1, r2, -2 - r1 - r2)
        for r1 in range(-3, 4) for r2 in range(-3, 4)
    )
    monkeypatch.setattr(etaq.search, "_ratio12_in_r2", lambda: rows)
    directions = [(0, 0, 1), (1, 2, 0), (1, 0, 0), (2, 4, 1)]
    hits = _second_derivative_hits(8, directions)
    assert hits == square_scan_hits(8, directions, ratio)
    row = [r for r, index in hits if r[0] == 5]
    assert row == [(5, r2, -7 - r2) for r2 in range(-8, 2)]


def integer_roots_brute(a, b, c, lo, hi):
    if not (a or b or c):
        return None
    return [x for x in range(lo, hi + 1) if a * x * x + b * x + c == 0]


def _from_roots(x1, x2, k):
    return k, -k * (x1 + x2), k * x1 * x2


_coefficient = st.one_of(st.just(0), st.integers(-60, 60))
_window = st.integers(-40, 40)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(_coefficient, _coefficient, _coefficient),
        st.builds(_from_roots, _window, _window, st.integers(-6, 6)),
    ),
    _window,
    _window,
)
@example((0, 3, -6), -10, 10)  # a = 0
@example((0, 2, 1), -10, 10)  # a = 0, -c not divisible by b
@example((0, 0, 5), -10, 10)  # a = b = 0, no root
@example((1, 0, -9), -10, 10)  # b = 0
@example((2, -6, 0), -10, 10)  # c = 0
@example((0, 0, 0), -10, 10)  # identically zero
@example((1, 0, 1), -10, 10)  # negative discriminant
@example((1, 0, -2), -10, 10)  # discriminant not a square
@example((1, 0, -100), -5, 5)  # both roots outside the window
@example((1, -3, -40), 0, 10)  # roots 8 and -5, one outside
@example((2, -1, -1), -10, 10)  # -b - sqrt(D) not divisible by 2a
@example((4, 0, -1), -10, 10)  # neither -b +- sqrt(D) divisible by 2a
@example((-3, 3, 18), -10, 10)  # a < 0
@example((1, -4, 4), -10, 10)  # double root
@example((1, 1, 0), 5, -5)  # empty window
def test_integer_roots_match_brute_force(abc, lo, hi):
    assert _integer_roots(*abc, lo, hi) == integer_roots_brute(*abc, lo, hi)


def test_level4_targets():
    targets = level4_targets()
    assert len(targets) == 6
    directions = {tuple(Fraction(x) for x in ts) for _, ts in targets}
    assert (Fraction(1), Fraction(-1), Fraction(0)) in directions
    assert (Fraction(0), Fraction(1), Fraction(-1)) in directions


def level4_targets_reference():
    """The former level4_targets: the published weight-4 list's level-2
    quotients, their z -> 2z images and its level-4 quotients, each
    with its certified E_4-coefficient vector over divisors 1, 2, 4."""
    level2 = [e for e in REFERENCE_WEIGHT4 if set(e) <= {1, 2}]
    quotients = [EtaQuotient(4, e) for e in level2]
    quotients += [rescale(EtaQuotient(2, e), 2) for e in level2]
    quotients += [EtaQuotient(4, e) for e in REFERENCE_WEIGHT4 if e not in level2]
    out = []
    for q in quotients:
        element = match_eta(q)
        assert element is not None and element.k == 4
        out.append((q, tuple(element.coeffs.get(d, Fraction(0)) for d in (1, 2, 4))))
    return out


def test_walked_targets_match_published_construction():
    def key(target):
        return target[0].key()

    assert sorted(level4_targets(), key=key) == sorted(level4_targets_reference(), key=key)


def test_second_derivatives_need_no_published_list(monkeypatch):
    def outcome():
        sols = classify_second_derivatives_level4(60, certify_rel=48)
        return [(sol.r, sol.target, sol.scalar, sol.s) for sol in sols]

    expected = outcome()
    monkeypatch.setattr(etaq.search, "REFERENCE_WEIGHT4", [])
    level4_targets.cache_clear()
    try:
        assert outcome() == expected
    finally:
        level4_targets.cache_clear()


@pytest.mark.parametrize("name", sorted(CONVOLUTIONS))
def test_ratio_form_rejects_a_row_that_does_not_cancel(monkeypatch, name):
    a, b, c, e = CONVOLUTIONS[name]
    d = min(e)
    monkeypatch.setitem(CONVOLUTIONS, name, (a, b, c, {**e, d: e[d] + 1}))
    with pytest.raises(AssertionError, match=f"^{name}: no integer form cancelling D\\(h\\) at d = {d}$"):
        _ratio12_form.__wrapped__()


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ratio_in_r2_is_the_form_on_the_plane(r1, r2):
    # the quadratics read off the form rows are _ratio12 on the plane
    # r1 + r2 + r4 = -2, component by component
    assert tuple(_value(row, r1, r2) for row in _ratio12_in_r2()) == _ratio12(r1, r2, -2 - r1 - r2)


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


def fricke_flip(exps: dict[int, int], level: int) -> dict[int, int]:
    """The exponent vector of f|W_N for f = prod_t eta(tz)^(r_t): t -> N/t."""
    return {level // t: r for t, r in exps.items()}


def test_result_sets_are_closed_under_fricke():
    # As eta(-t/(Nz)) = sqrt(-i(N/t)z) eta((N/t)z), W_N maps an eta
    # quotient to a constant times the one with exponents moved t -> N/t,
    # and E_k(tz) to a multiple of E_k((N/t)z); it keeps the weight,
    # holomorphy at the cusps and the character.  So each searched set
    # is closed under t -> N/t, at level 4 (r1, r2, r4) -> (r4, r2, r1).
    for k, p, m in WEIGHT2_CELLS + WEIGHT4_CELLS:
        found = {_freeze(e) for e in enumerate_eta_in_e(k, p, m).exponent_maps()}
        assert {_freeze(fricke_flip(dict(e), p**m)) for e in found} == found, (k, p, m)
    second = {sol.r for sol in classify_second_derivatives_level4()}
    assert {(r4, r2, r1) for r1, r2, r4 in second} == second

    # The sources of the dual pairs are a closed set.  Their f are closed
    # only up to scale: D(f)/f = lambda * source with lambda > 0 picks one
    # of f and 1/f and fixes its scale, so each flipped f is a negative
    # rational multiple of a listed f.
    pairs = dual_pairs_prime_power()
    sources = {(dp.source.level, _freeze(dp.source.exponents)) for dp in pairs}
    assert {(n, _freeze(fricke_flip(dict(e), n))) for n, e in sources} == sources
    factors = []
    for dp in pairs:
        flipped = fricke_flip(dp.f.exponents, dp.f.level)
        for other in pairs:
            if other.f.level == dp.f.level and set(other.f.exponents) == set(flipped):
                ratios = {Fraction(r, other.f.exponents[t]) for t, r in flipped.items()}
                if len(ratios) == 1 and min(ratios) < 0:
                    factors.append(min(ratios))
                    break
    assert len(factors) == len(pairs) == 12
    assert set(factors) == {-1, -2, -8, Fraction(-1, 2), Fraction(-1, 8)}
