"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a `[criterion N] PASS/FAIL` line (run pytest with -s
or check the captured output).  Criterion 8 is split: the certified
identity passes, but the uniqueness clause is asserted as stated and
fails honestly, because the bounded search provably returns additional
certified solutions; the analysis lives in the failure message and the
test docstring.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from etaq.arith import prime_power
from etaq.cli import main as cli_main
from etaq.cusps import check_order_bound, cusp_reps, order_at_cusp
from etaq.eisenstein import (
    EisensteinElement,
    match_eta,
    random_p_element,
    sturm_bound,
    verify_identities,
)
from etaq.eta import EtaQuotient
from etaq.search import (
    EXCLUDED_CELLS,
    REFERENCE_WEIGHT4,
    classify_second_derivatives_level4,
    dual_pairs_prime_power,
    enumerate_eta_in_e,
    verify_classification_lists,
)
from etaq.series import QSeries
from test_eta import order_at_denominator
from test_series import agrees_with


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def _freeze(exps):
    return tuple(sorted(exps.items()))


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_weight2_classification(capsys):
    t0 = time.time()
    code = cli_main(["verify", "--suite", "corollaries", "--json"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    data = json.loads(out)["classification"]

    report = verify_classification_lists()
    counts = report.weight2_counts
    total = sum(counts.values())
    matched = len(report.weight2_matched)
    bound_ok = all(
        sp.certified_through >= 2 * sturm_bound(2, sp.eta.level)
        for res in report.weight2.values()
        for sp in res.pairs
    )
    missing_ok = [sorted(e.items()) for e in report.weight2_missing] == [[(1, 4)]]
    extra_ok = [_freeze(sp.eta.exponents) for sp in report.weight2_extra] == [
        _freeze({1: 8, 2: -4})
    ]
    ok = (
        code == 0
        and data["ok"]
        and counts == {4: 3, 8: 4, 9: 1, 16: 4}
        and total == 12
        and matched >= 10
        and bound_ok
        and missing_ok
        and extra_ok
        and elapsed < 120
    )
    with capsys.disabled():
        _report(
            "1",
            ok,
            f"12 weight-2 quotients (3/4/1/4), {matched}/12 printed entries verbatim, "
            f"discrepant pair reported with certified correction, {elapsed:.1f}s",
        )
    assert ok


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_weight4_exact(capsys):
    found = []
    for k, p, m in [(4, 2, 1), (4, 2, 2)]:
        found += enumerate_eta_in_e(k, p, m).exponent_maps()
    ok = {_freeze(e) for e in found} == {_freeze(e) for e in REFERENCE_WEIGHT4}
    ok = ok and len(found) == 4
    with capsys.disabled():
        _report("2", ok, "exactly the four published weight-4 quotients")
    assert ok


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_excluded_cells(capsys):
    leftovers = {}
    for k, p, m in EXCLUDED_CELLS:
        pairs = enumerate_eta_in_e(k, p, m).pairs
        if pairs:
            leftovers[(k, p**m)] = [sp.eta.render() for sp in pairs]
    ok = not leftovers and len(EXCLUDED_CELLS) == 13
    with capsys.disabled():
        _report("3", ok, "all 13 excluded (k, p^m) searches empty")
    assert ok, leftovers


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_dual_pairs(capsys):
    pairs = dual_pairs_prime_power(certify_rel=2400)  # 2400/24 = 100 q-steps
    ok = len(pairs) == 12
    for dp in pairs:
        # 100 q-steps past g's leading exponent, which is at most one step after f's
        lhs = dp.f.expansion(101).ramanujan_d()
        rhs = dp.g.expansion(100) * dp.scalar
        ok = ok and (lhs - rhs).is_zero_to_prec()
    by_f = {_freeze(dp.f.exponents): dp for dp in pairs}
    key = _freeze({1: -8, 4: 8})
    ok = ok and key in by_f
    if key in by_f:
        dp = by_f[key]
        # D(q prod (1-q^(4n))^8/(1-q^n)^8) = q prod (1-q^(2n))^20/(1-q^n)^16
        ok = ok and dp.scalar == 1 and dp.g.exponents == {1: -16, 2: 20}
    with capsys.disabled():
        _report("4", ok, "12 dual pairs, D(f) = c*g certified through exponent 100")
    assert ok


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_identity_suite(capsys):
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
    ok = all(
        by_name[n].status == "ok"
        and by_name[n].bound >= 2 * sturm_bound(by_name[n].weight, by_name[n].level)
        for n in equalities
    )
    for n in ("theta-power-eisenstein-part-2k2", "theta-power-eisenstein-part-2k4"):
        ok = ok and by_name[n].status == "remainder" and "1/2" in (by_name[n].note or "")
    with capsys.disabled():
        _report(
            "5",
            ok,
            "10 identities exact through 2x Sturm; theta-power remainder 1/2 documented",
        )
    assert ok


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_order_bound_sampled(capsys):
    t0 = time.time()
    levels = [2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 49]
    weights = [2, 4, 6]
    samples = 100
    failures = []
    for k in weights:
        for n in levels:
            p, m = prime_power(n)
            rng = random.Random(f"acceptance:{k}:{n}")
            for _ in range(samples):
                report = check_order_bound(random_p_element(rng, k, p, m))
                if not report.ok:
                    failures.append(report.to_json())
                else:
                    caps_ok = all(
                        v <= (2 if (n == 4 and label.endswith("/2")) else 1)
                        for label, v in report.orders.items()
                    )
                    if not caps_ok:
                        failures.append(report.to_json())
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    with capsys.disabled():
        _report(
            "6",
            ok,
            f"{samples * len(levels) * len(weights)} sampled elements within bounds, {elapsed:.1f}s",
        )
    assert ok, failures[:3]


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_cross_oracle_orders(capsys):
    quotients: list[EtaQuotient] = []
    for k, p, m in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 4), (4, 2, 1), (4, 2, 2)]:
        quotients += [sp.eta for sp in enumerate_eta_in_e(k, p, m).pairs]
    ok = len(quotients) == 16
    for q in quotients:
        element = match_eta(q)
        ok = ok and element is not None
        if element is None:
            continue
        n = q.level
        p, m = prime_power(n)
        for cusp in cusp_reps(n):
            eta_side = order_at_denominator(q, cusp.c)
            ok = ok and eta_side.denominator == 1
            ok = ok and order_at_cusp(element, cusp) == eta_side
        k = int(q.weight())
        expected = Fraction(k, 12) * (n + n // p)
        ok = ok and q.total_cusp_order() == expected
    with capsys.disabled():
        _report("7", ok, "16 quotients: cusp orders agree across oracles; valence sums exact")
    assert ok


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_known_identity_certified(capsys):
    sols = classify_second_derivatives_level4(certify_rel=2400)
    by_r = {sol.r: sol for sol in sols}
    ok = (-4, 2, 0) in by_r
    if ok:
        sol = by_r[(-4, 2, 0)]
        ok = sol.scalar == 4 and sol.target.exponents == {1: -8, 2: 16}
        # D^2(eta(2)^2/eta(1)^4) = 4 eta(2)^18/eta(1)^12 through exponent 100
        f = EtaQuotient(4, {1: -4, 2: 2})
        g = EtaQuotient(4, {1: -12, 2: 18})
        lhs = f.expansion(101).ramanujan_d().ramanujan_d()  # from q^0
        rhs = g.expansion(100) * 4  # from q^1
        ok = ok and (lhs - rhs).is_zero_to_prec()
    with capsys.disabled():
        _report("8a", ok, "D^2(eta(2)^2/eta(1)^4) = 4*eta(2)^18/eta(1)^12 through exponent 100")
    assert ok


def test_criterion_8_solution_set_matches_published_claim(capsys):
    """Asserts the published uniqueness claim verbatim; fails honestly.

    The published claim expects only eta(2)^2/eta(1)^4 and
    its rescalings.  The bounded search prescribed for this criterion
    provably returns more: each extra solution below is certified by
    exact series arithmetic through 100 q-exponents (and two were
    re-verified by hand to q^3):

        D^2(eta(1)^2/eta(2)^4)                    = 1/16 * eta(1)^18/eta(2)^12
        D^2(eta(2)^2/(eta(1)^2 eta(4)^2))         = 1/16 * eta(2)^42/(eta(1)^18 eta(4)^18)
        D^2(eta(1)^4 eta(4)^4/eta(2)^10)          = -4   * eta(1)^12 eta(4)^12/eta(2)^18

    plus the z -> 2z images of the first one and of the published
    solution.  These are primitive quotients, not trivial extensions of
    eta(2)^2/eta(1)^4, so the claimed solution set is incomplete.  See
    the decisions ledger for the full analysis.
    """
    sols = classify_second_derivatives_level4(certify_rel=2400)
    found = {sol.r for sol in sols}
    expected = {(-4, 2, 0), (0, -4, 2)}  # the published family within the bound
    extras = sorted(found - expected)
    ok = found == expected
    with capsys.disabled():
        _report(
            "8b",
            ok,
            "solution set beyond the published family: "
            + ", ".join(str(r) for r in extras)
            + " (each certified exactly; see ledger)",
        )
    assert ok, (
        "certified solutions beyond the published uniqueness claim: "
        f"{extras}; every one satisfies D^2(f) = c * (eta quotient) exactly "
        "through 100 q-exponents, so the claim, not the search, is incomplete"
    )


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_property_suites(capsys):
    # (a) derivation rule D(xy) = D(x)y + xD(y), exact, random series
    # with shifts in whole q-steps or in 1/24 steps
    rng = random.Random(2024)

    def rand_series():
        offset = rng.randint(-4, 4) * rng.choice([1, 24])
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 7))]
        den = 6
        return QSeries(offset, [int(v * den) for v in values], den)

    derivation_ok = True
    for _ in range(120):
        x, y = rand_series(), rand_series()
        lhs = (x * y).ramanujan_d()
        rhs = x.ramanujan_d() * y + x * y.ramanujan_d()
        derivation_ok = derivation_ok and agrees_with(lhs, rhs)

    # (b) the eta expansion against the naive product, 500 q-exponents
    prec_q = 500
    series = EtaQuotient(1, {1: 1}).expansion(prec_q)
    naive = [0] * (prec_q + 1)
    naive[0] = 1
    for n in range(1, prec_q + 1):
        for i in range(prec_q, n - 1, -1):
            naive[i] -= naive[i - n]
    eta_ok = (series.offset, series.prec) == (1, prec_q) and [
        series.coeff(n) for n in range(prec_q)
    ] == naive[:prec_q]

    # (c) independence of cusp orders from d, 50 randomized choices
    from etaq.cusps import Cusp, _omega
    from test_cusps import efgh_exponent

    completion_ok = True
    el = EisensteinElement(2, 4, {1: 8, 4: -32})
    el9 = EisensteinElement(4, 9, {1: 1, 3: 2, 9: -5})
    for element in (el, el9):
        for cusp in cusp_reps(element.level):
            reference = order_at_cusp(element, cusp)
            for _ in range(50):
                j = rng.randint(-30, 30)
                shifted = Cusp(cusp.a, cusp.c, element.level, cusp.d + j * cusp.c)
                order = element.level // shifted.c
                completion_ok = completion_ok and all(
                    _omega(element.level, shifted.c, shifted.d, t)
                    == efgh_exponent(t, shifted, order, rng, 30)
                    for t in element.coeffs
                )
                completion_ok = completion_ok and order_at_cusp(element, shifted) == reference

    # (d) exponent-step table, p in {2, 3}, m <= 5, exhaustive
    table_ok = True
    for p in (2, 3):
        for m in range(0, 6):
            n = p**m
            for i in range(m + 1):
                for jj in range(m + 1):
                    c, t = p**i, p**jj
                    step = gcd(t, c) ** 2 * n // (t * gcd(c * c, n))
                    if 2 * i >= m:
                        expected = p**jj if i >= jj else p ** (2 * i - jj)
                    else:
                        expected = p ** (m + jj - 2 * i) if i >= jj else p ** (m - jj)
                    table_ok = table_ok and step == expected

    ok = derivation_ok and eta_ok and completion_ok and table_ok
    with capsys.disabled():
        _report(
            "9",
            ok,
            f"derivation={derivation_ok} eta500={eta_ok} "
            f"completions={completion_ok} step-table={table_ok}",
        )
    assert ok
