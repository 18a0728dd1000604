"""Cusp representatives, widths, expansions at cusps, exact orders, and
the order-sum bound machinery.

The four structural oracles here: (1) for elements matched to eta
quotients, orders at every cusp must agree with the closed-form eta
order, for every numerator; (2) orders must be invariant under the
(non-canonical) choice of the cusp's d, which only rotates the roots of
unity entering the coefficients; (3) cusps with one denominator have
the same orders, since changing the numerator applies a Galois
automorphism to the coefficients; (4) the Fricke involution W_N, which
turns the expansion at 1/1 into a rational expansion at infinity that
no cusp code computes, and sends orders at 1/c to orders at 1/(N/c).
The roots of unity's closed form in cusps._omega is checked against the
auxiliary completion of E_k(tz) at a/c, kept here as the reference;
expansions and orders read from the per-cusp integer map
cusps._cusp_map against the per-element scatter they replaced
(cusp_terms_reference and scatter_reference) and, window by window,
against the gather generator before it; and
check_order_bound, which computes one order per denominator, against
the order at every cusp.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hypothesis import assume, given, settings, strategies as st

from etaq.arith import (
    bernoulli,
    cusp_step,
    denominator_multiplicity,
    divisors,
    prime_power,
    sigma,
    sigma_table,
)
from etaq.cusps import (
    Cusp,
    _cusp_map,
    _cusp_scalars,
    _omega,
    _window,
    check_order_bound,
    cusp_count,
    cusp_reps,
    expansion_at_cusp,
    order_at_cusp,
    order_sum_bound,
)
from etaq.cyclotomic import CycNumber
from etaq.eisenstein import EisensteinElement, _constant, match_eta, random_p_element, sturm_bound
from etaq.eta import EtaQuotient
from etaq.linalg import rref
from etaq.search import EXCLUDED_CELLS, WEIGHT2_CELLS, WEIGHT4_CELLS, enumerate_eta_in_e
from etaq.series import QSeries, SeriesDomainError
from test_eta import order_at_denominator
import cyc_reference


def efgh_complete(t: int, a: int, c: int) -> tuple[int, int, int, int]:
    """The auxiliary completion used for expanding E_k(tz) at a/c.

    Returns (e, f, g, h) with e = a*t/gcd(t, c), g = c/gcd(t, c) and
    e*h - f*g = 1: h is the least positive inverse of e mod g (1 when
    g = 1), the same choice as a cusp's default d.
    """
    g0 = gcd(t, c)
    e = a * t // g0
    g = c // g0
    h = pow(e, -1, g) or 1
    return e, (e * h - 1) // g, g, h


def efgh_exponent(t: int, cusp: Cusp, order: int, rng: random.Random, spread: int) -> int:
    """w_t from the auxiliary completion: omega_t = zeta_t'^(-d f), with f
    shifted by a random multiple of e (drawn only when t' > 1)."""
    tprime = t // gcd(t, cusp.c)
    if tprime == 1:
        return 0
    e, f, _, _ = efgh_complete(t, cusp.a, cusp.c)
    f += rng.randint(-spread, spread) * e
    return (-cusp.d * f) % tprime * (order // tprime)


def test_efgh_examples():
    e, f, g, h = efgh_complete(4, 1, 2)
    assert (e, g) == (2, 1)
    assert e * h - f * g == 1
    assert efgh_complete(1, 1, 1) == (1, 0, 1, 1)
    e, f, g, h = efgh_complete(2, 1, 2)
    assert (e, g) == (1, 1)
    assert h - f == 1


@given(st.integers(1, 40), st.integers(-40, 40), st.integers(1, 40))
def test_efgh_determinant_property(t, a, c):
    if gcd(a, c) != 1:
        return
    e, f, g, h = efgh_complete(t, a, c)
    assert e == a * t // gcd(t, c)
    assert g == c // gcd(t, c)
    assert e * h - f * g == 1


def cusp_terms_reference(f, cusp) -> tuple[int, int, list[tuple[int, int, int]]]:
    """The former cusps._cusp_terms, with the per-t triples of the former
    cusps._cusp_shape computed in place: (L, D, terms) with one term
    (step_t, w_t, W_t) per t, omega_t = zeta_L^w_t, and P_t =
    r_t (gcd(t,c)/t)^k = W_t / D over the lcm D of the P_t denominators."""
    n, c, k = f.level, cusp.c, f.k
    order = n // c
    raw = []
    for t, r in f.coeffs.items():
        ct = gcd(t, c)
        tprime = t // ct
        w = cusp.d % order * pow(c // ct, -1, tprime) % tprime * (order // tprime)
        pn, pd = r.numerator, r.denominator * tprime**k
        g = gcd(pn, pd)
        raw.append((cusp_step(n, c, t), w, pn // g, pd // g))
    den = lcm(*(pd for _, _, _, pd in raw))
    return order, den, [(step, w, pn * (den // pd)) for step, w, pn, pd in raw]


def scatter_reference(order: int, den: int, terms, k: int, prec: int, lo: int = 0):
    """The former cusps._scatter: the integer numerators {j: n} of the
    steps lo <= e < prec, None where no term lands, over their one
    denominator, each term scattered into its own multiples of step_t."""
    const = _constant(k)
    table = sigma_table(k - 1, prec - 1)
    accs: list[dict[int, int] | None] = [None] * (prec - lo)
    if lo == 0:
        accs[0] = {0: const.numerator * sum(num for _, _, num in terms)}
    for step, w, num in terms:
        scale = num * const.denominator
        for n in range(max(-(-lo // step), 1), (prec - 1) // step + 1):
            i = n * step - lo
            j = n * w % order
            acc = accs[i]
            if acc is None:
                accs[i] = {j: scale * table[n]}
            else:
                acc[j] = acc.get(j, 0) + scale * table[n]
    return accs, den * const.denominator


def reference_steps(f, cusp, prec: int) -> list[CycNumber]:
    """Steps 0 .. prec-1 at the cusp by the former per-element path: one
    scatter over the former terms, each nonempty step normalised."""
    order, den, terms = cusp_terms_reference(f, cusp)
    accs, d = scatter_reference(order, den, terms, f.k, prec)
    return [CycNumber._normal(order, acc, d) if acc else CycNumber.zero(order) for acc in accs]


def coefficient_reference(f, cusp, order: int, terms, e: int) -> CycNumber:
    """The former cusps._coefficient: one Fraction r_t (gcd(t,c)/t)^k per
    term, read from the element, sigma by factorisation, turned into
    integers by the reference CycNumber constructor.  Only the exponent
    steps and the roots of unity come from cusp_terms_reference."""
    k = f.k
    acc: dict[int, Fraction] = {}
    const = Fraction(-bernoulli(k), 2 * k)
    for (t, r), (step, w, _) in zip(f.coeffs.items(), terms, strict=True):
        if e % step:
            continue
        n = e // step
        val = r * Fraction(gcd(t, cusp.c), t) ** k * (const if n == 0 else sigma(k - 1, n))
        j = (n * w) % order
        acc[j] = acc.get(j, Fraction(0)) + val
    return cyc_reference.CycNumber(order, acc)


def cusp_coefficient(f, cusp, e: int) -> CycNumber:
    """Coefficient of q_{c,N}^e, read off the expansion."""
    return expansion_at_cusp(f, cusp, e + 1).series.coeffs[e]


def window(f, cusp, prec: int, hi: int, lo: int = 0) -> list[CycNumber]:
    """The steps lo <= e < hi of the map below prec applied to f, as
    order_at_cusp tests them."""
    order, terms, den = _cusp_scalars(f, cusp, prec)
    accs, den = _window(terms, den, f.k, lo, hi)
    return list(CycNumber._steps(order, accs, den))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_coefficients_match_fraction_reference(data):
    # every cusp of prime-power and composite levels, rational weights
    # with large numerators and denominators, zero terms included: the
    # integer generator must produce the same stored representation
    n = data.draw(st.sampled_from([1, 4, 8, 9, 12, 16, 25, 27, 32, 36, 49, 125]))
    k = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
    support = data.draw(st.lists(st.sampled_from(divisors(n)), min_size=1, unique=True))
    coeffs = {
        t: Fraction(data.draw(st.integers(-10**9, 10**9)), data.draw(st.integers(1, 10**6)))
        for t in support
    }
    element = EisensteinElement.__new__(EisensteinElement)  # no weight-2 balance needed
    element.k, element.level, element.coeffs = k, n, coeffs
    cusp = data.draw(st.sampled_from(cusp_reps(n)))
    prec = data.draw(st.integers(1, 40))
    order, scalars, den = _cusp_scalars(element, cusp, prec)
    c = cusp.c
    assert [step for _, step, _ in scalars] == [
        gcd(t, c) ** 2 * n // (t * gcd(c * c, n)) for t in coeffs
    ]
    assert [Fraction(num, den) for num, _, _ in scalars] == [
        r * Fraction(gcd(t, c), t) ** k for t, r in coeffs.items()
    ]
    _, _, terms = cusp_terms_reference(element, cusp)
    got = expansion_at_cusp(element, cusp, prec).series.coeffs
    assert len(got) == prec
    for e, coeff in enumerate(got):
        want = coefficient_reference(element, cusp, order, terms, e)
        assert (coeff.order, coeff.coeffs) == (want.order, want.coeffs), (e, cusp)


def test_cusp_terms_keep_rational_denominators():
    # P_t = r_t (gcd(t,c)/t)^k with r_t's own denominators above 1, on
    # terms with t' = 1 (P = r) and with t' > 1, one of them reduced by
    # gcd(8, 9 * 2^4) = 8: at 1/2 on level 12, P = 3/7, -5/4, 1/18 and
    # 1/7776 over D = 7 * 7776, with L = 12 / 2
    r = {1: Fraction(3, 7), 2: Fraction(-5, 4), 4: Fraction(8, 9), 12: Fraction(1, 6)}
    f = EisensteinElement(4, 12, r)
    cusp = Cusp(1, 2, 12)
    order, scalars, den = _cusp_scalars(f, cusp, 8)
    assert (order, den) == (6, 54432)
    assert [(step, num) for num, step, _ in scalars] == [(3, 23328), (6, -68040), (3, 3024), (1, 7)]
    _, _, terms = cusp_terms_reference(f, cusp)
    for e in range(8):
        got, want = cusp_coefficient(f, cusp, e), coefficient_reference(f, cusp, order, terms, e)
        assert (got.order, got.coeffs) == (want.order, want.coeffs), e


def coefficients_reference(order: int, den: int, terms, k: int, prec: int):
    """The former cusps._coefficients: for each exponent below prec, gather
    every term that divides it, then normalise the step."""
    const = _constant(k)
    table = sigma_table(k - 1, prec - 1)
    zero = CycNumber.zero(order)  # read-only, so shared by every empty step
    for e in range(prec):
        acc: dict[int, int] = {}
        for step, w, num in terms:
            if e % step:
                continue
            n = e // step
            val = num * const.numerator if n == 0 else num * const.denominator * table[n]
            j = n * w % order
            acc[j] = acc.get(j, 0) + val
        yield CycNumber._normal(order, acc, den * const.denominator) if acc else zero


def stored(c: CycNumber) -> tuple:
    # exact coordinates on the zeta_L^j basis; a cusp series' steps are
    # not reduced, so their (terms, den) depend on the path that built them
    return (c.order, c.coeffs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_windowed_scatter_matches_gather_reference(data):
    # every cusp of a level <= 128, small integer r (some forced to make
    # the constant term vanish at one cusp denominator, so orders above 0
    # occur), windows of the map split at random points: the
    # concatenated windows equal the gather reference step for step, and
    # order_at_cusp finds its first exactly nonzero step or raises at the
    # same prec
    n = data.draw(st.integers(1, 128))
    k = data.draw(st.sampled_from([2, 4, 6]))
    divs = divisors(n)
    r = {t: Fraction(data.draw(st.integers(-4, 4))) for t in divs}
    if data.draw(st.booleans()):
        # sum_t r_t (gcd(t, c0)/t)^k = 0: the q^0 coefficient vanishes at c0
        c0 = data.draw(st.sampled_from(divs))
        t0 = data.draw(st.sampled_from(divs))
        weight = {t: Fraction(gcd(t, c0), t) ** k for t in divs}
        r[t0] = -sum(r[t] * weight[t] for t in divs if t != t0) / weight[t0]
    element = EisensteinElement.__new__(EisensteinElement)  # no weight-2 balance needed
    element.k, element.level, element.coeffs = k, n, {t: v for t, v in r.items() if v}
    prec = data.draw(st.integers(1, 40))
    cuts = sorted(set(data.draw(st.lists(st.integers(0, prec), max_size=4))) | {0, prec})
    for cusp in cusp_reps(n):
        order, den, terms = cusp_terms_reference(element, cusp)
        want = list(coefficients_reference(order, den, terms, k, prec))
        got = []
        for lo, hi in zip(cuts, cuts[1:]):
            steps = window(element, cusp, prec, hi, lo)
            assert len(steps) == hi - lo
            got += steps
        assert [stored(c) for c in got] == [stored(c) for c in want], (n, k, cusp, cuts)
        expanded = expansion_at_cusp(element, cusp, prec).series.coeffs
        assert [stored(c) for c in expanded] == [stored(c) for c in want]
        if element.is_zero():
            with pytest.raises(ValueError):
                order_at_cusp(element, cusp, prec)
            continue
        first = next((e for e, c in enumerate(want) if not c.is_zero()), None)
        if first is None:
            with pytest.raises(SeriesDomainError, match="precision-exhausted"):
                order_at_cusp(element, cusp, prec)
        else:
            assert order_at_cusp(element, cusp, prec) == first, (n, k, cusp, prec)


def reference_order(f, cusp, prec: int) -> int | None:
    """The first exactly nonzero step below prec on the former path."""
    return next((e for e, c in enumerate(reference_steps(f, cusp, prec)) if not c.is_zero()), None)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cusp_map_matches_scatter_reference(data):
    # expansions and orders read from the per-cusp map against the
    # per-element scatter they replaced, at every cusp of prime-power
    # levels up to 125 and weights up to 14: drawn rational r_t (with a
    # drawn flag, r is set to cancel the constant term at one
    # denominator, so that orders above 0 occur), step for step on the
    # exact coordinates, and orders at a drawn depth and the default one
    n = data.draw(st.sampled_from([4, 8, 9, 16, 25, 27, 32, 49, 125]), label="level")
    k = data.draw(st.sampled_from([2, 4, 6, 14]), label="k")
    divs = divisors(n)
    support = data.draw(st.lists(st.sampled_from(divs), min_size=1, unique=True), label="support")
    r = {
        t: Fraction(data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(1, 10**3)))
        for t in support
    }
    if len(r) > 1 and data.draw(st.booleans(), label="cancel"):
        # sum_t r_t (gcd(t, c0)/t)^k = 0: the q^0 coefficient vanishes at c0
        c0 = data.draw(st.sampled_from(divs), label="c0")
        t0, *rest = support
        weight = {t: Fraction(gcd(t, c0), t) ** k for t in support}
        r[t0] = -sum(r[t] * weight[t] for t in rest) / weight[t0]
    element = EisensteinElement.__new__(EisensteinElement)  # no weight-2 balance needed
    element.k, element.level, element.coeffs = k, n, {t: v for t, v in r.items() if v}
    prec = data.draw(st.integers(1, 24), label="prec")
    for cusp in cusp_reps(n):
        got = expansion_at_cusp(element, cusp, prec).series.coeffs
        want = reference_steps(element, cusp, prec)
        assert [stored(c) for c in got] == [stored(c) for c in want], cusp
        if element.is_zero():
            continue
        for depth in (prec, sturm_bound(k, n) + 1):
            want = reference_order(element, cusp, depth)
            if want is None:
                with pytest.raises(SeriesDomainError, match="precision-exhausted"):
                    order_at_cusp(element, cusp, depth)
            else:
                assert order_at_cusp(element, cusp, depth) == want, (cusp, depth)


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


def test_cusp_default_d_is_least_inverse():
    # the default d against a brute-force search for the least positive
    # d with a*d = 1 (mod c), over every coprime pair with 1 <= c < 300
    # and -300 <= a < 300; a d that is not an inverse is refused
    for c in range(1, 300):
        least = {}
        for r in range(c):
            if gcd(r, c) == 1:
                least[r] = next(d for d in range(1, c + 1) if (r * d - 1) % c == 0)
        for a in range(-300, 300):
            if gcd(a, c) == 1:
                assert Cusp(a, c, c).d == least[a % c], (a, c)
    assert Cusp(3, 4, 4, 7).d == 7
    with pytest.raises(ValueError, match="a\\*d = 1"):
        Cusp(1, 2, 4, 2)


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
    assert cyc_reference.reference(exp.series.coeff(0)).rational_value() == Fraction(1, 240 * 256)


def test_expansion_at_cusp_t_divides_c():
    # single term E_k(tz) with t | c: omega = 1, rational coefficients
    el = EisensteinElement(4, 4, {2: 1})
    cusp = Cusp(1, 4, 4)
    exp = expansion_at_cusp(el, cusp, 6)
    for e in range(6):
        assert cyc_reference.reference(exp.series.coeff(e)).rational_value() is not None


def test_expansion_exponent_lattice_integral():
    for n in (4, 9, 16):
        el = EisensteinElement(4, n, {t: 1 for t in (1, n)})
        for cusp in cusp_reps(n):
            exp = expansion_at_cusp(el, cusp, 8)
            # whole steps of q_{c,N} by construction: no shift, one
            # cyclotomic order, and the values themselves as coefficients
            series = exp.series
            assert (series.offset, series.den, series.prec) == (0, 1, 8)


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


def test_eisenstein_constant_built_once_per_weight(monkeypatch):
    # -B_k/2k is built once per weight, not once per expansion or order
    import etaq.eisenstein

    calls = []

    def counted(k):
        calls.append(k)
        return bernoulli(k)

    monkeypatch.setattr(etaq.eisenstein, "bernoulli", counted)
    etaq.eisenstein._constant.cache_clear()
    el = EisensteinElement(6, 8, {1: 1, 2: -3, 4: 2, 8: 5})
    cusps = cusp_reps(8)
    for i in range(50):
        order_at_cusp(el, cusps[i % len(cusps)])
    assert len(calls) <= 1


def test_order_errors():
    with pytest.raises(ValueError):
        order_at_cusp(EisensteinElement(4, 4, {}), Cusp(1, 2, 4))
    with pytest.raises(SeriesDomainError):
        # artificially tiny precision cannot see the first nonzero term
        order_at_cusp(JACOBI_EL, Cusp(1, 2, 4), prec=1)


def test_order_at_cusp_checks_prec():
    # a window below 1 is a usage error, as for expansion_at_cusp, not
    # an exhausted precision
    f = EisensteinElement(4, 27, {1: 1, 27: -1})
    for prec in (0, -3):
        for call in (order_at_cusp, expansion_at_cusp):
            with pytest.raises(ValueError, match="prec must be >= 1"):
                call(f, Cusp(1, 3, 27), prec)
    assert order_at_cusp(f, Cusp(1, 3, 27), 1) == 0


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
            eta_order = order_at_denominator(q, cusp.c)
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
        assert orders[cusp.label()] == order_at_denominator(q, cusp.c)
    assert orders == {"1/1": 0, "1/2": 1, "1/3": 0, "1/4": 2, "1/6": 1, "1/12": 0}


def _shifted(a, c, n, j):
    """Cusp a/c of Gamma0(n) with its default d shifted by j*c."""
    return Cusp(a, c, n, Cusp(a, c, n).d + j * c)


def test_order_independent_of_completions():
    # 50 randomized choices of d, shifted by multiples of c, which must
    # leave the order alone; and of the auxiliary f, shifted by
    # multiples of e, which must leave every root of unity alone
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
                shifted_cusp = _shifted(cusp.a, cusp.c, el.level, j)
                order = el.level // cusp.c
                for t in el.coeffs:
                    w = _omega(el.level, cusp.c, shifted_cusp.d, t)
                    assert w == efgh_exponent(t, shifted_cusp, order, rng, 20), (t, shifted_cusp)
                assert order_at_cusp(el, shifted_cusp) == reference


def test_cusp_roots_of_unity_match_auxiliary_completion():
    # the closed form w_t = d (c/gcd(t,c))^-1 mod t' against the
    # auxiliary completion, for every N <= 500, c | N and t | N, with
    # three random numerators a in [-50, 50] per c, d shifted by a
    # random multiple of c and f by a random multiple of e
    rng = random.Random(17)
    numerators = range(-50, 51)
    for n in range(1, 501):
        divs = divisors(n)
        for c in divs:
            coprime = [a for a in numerators if gcd(a, c) == 1]
            for a in rng.sample(coprime, 3):
                cusp = _shifted(a, c, n, rng.randint(-1000, 1000))
                order = n // c
                for t in divs:
                    w = _omega(n, c, cusp.d, t)
                    assert w == efgh_exponent(t, cusp, order, rng, 1000), (n, cusp, t)


def workload_numerators(level: int, c: int) -> list[int]:
    """Every numerator the cusp-products workload of perfbench can pick at
    denominator c: for each class a mod g = gcd(c, level/c) prime to g,
    the first six members from (a mod g or g) upward that are prime to c;
    only 1 at c = level."""
    if c == level:
        return [1]
    g = gcd(c, level // c)
    out = []
    for res in range(g):
        if gcd(res, g) == 1:
            out += [a for a in range(res or g, res + 8 * g * c, g) if gcd(a, c) == 1][:6]
    return out


def conjugate_denominators(level: int) -> list[int]:
    """The c | level with more than one cusp a/c up to equivalence."""
    return [c for c in divisors(level) if denominator_multiplicity(level, c) > 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orders_depend_only_on_the_denominator(data):
    # For a/c and a'/c, shift d and d' by multiples of c until both are
    # units mod L = N/c; then d' = u d (mod L), so every omega_t exponent
    # is multiplied by u: zeta_L -> zeta_L^u maps each coefficient at a/c
    # to the one at a'/c, and each step vanishes at both or at neither.
    # The element is forced to vanish on its first steps at a drawn cusp
    # a0/c0 with inequivalent conjugates (a nullspace over Q), so that
    # the steps compared there cancel in Q(zeta_L).
    levels = [n for n in range(2, 129) if conjugate_denominators(n)]
    n = data.draw(st.sampled_from(levels), label="level")
    k = data.draw(st.sampled_from([2, 4, 6]), label="k")
    divs = divisors(n)
    c0 = data.draw(st.sampled_from(conjugate_denominators(n)), label="c0")
    cusp0 = Cusp(data.draw(st.sampled_from(workload_numerators(n, c0)), label="a0"), c0, n)
    rows = [[Fraction(1, t) for t in divs]] if k == 2 else []
    for e in range(data.draw(st.integers(1, 3), label="forced steps")):
        coords: dict[int, list[Fraction]] = {}
        for idx, t in enumerate(divs):
            basis = EisensteinElement.__new__(EisensteinElement)
            basis.k, basis.level, basis.coeffs = k, n, {t: Fraction(1)}
            for ci, cv in enumerate(cusp_coefficient(basis, cusp0, e).reduced()):
                coords.setdefault(ci, [Fraction(0)] * len(divs))[idx] = cv
        rows.extend(coords.values())
    space = nullspace(rows)
    weights = data.draw(st.lists(st.integers(-9, 9), min_size=len(space), max_size=len(space)))
    r = [sum(w * v[i] for w, v in zip(weights, space)) for i in range(len(divs))]
    assume(any(r))
    element = EisensteinElement(k, n, dict(zip(divs, r)))
    for c in divs:
        seen = set()
        for a in workload_numerators(n, c):
            cusp = Cusp(a, c, n)
            steps = expansion_at_cusp(element, cusp, 6).series.coeffs
            seen.add((order_at_cusp(element, cusp), tuple(x.is_zero() for x in steps)))
        assert len(seen) == 1, (element, c, seen)


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


def window_order_reference(f, cusp, prec: int) -> int | None:
    """The former order_at_cusp: each doubling window's numerators made a
    cusp series, whose valuation is the order once one has one."""
    order, terms, den = _cusp_scalars(f, cusp, prec)
    lo = 0
    while lo < prec:
        hi = min(2 * lo or 1, prec)
        accs, d = _window(terms, den, f.k, lo, hi)
        v = QSeries._cyclotomic(CycNumber, order, accs, d).valuation()
        if v is not None:
            return lo + v
        lo = hi
    return None


# precs on both sides of the window boundaries 1, 2, 4, 8 and 16
WINDOW_PRECS = (1, 2, 3, 4, 5, 8, 9, 16, 17)


def test_orders_read_from_window_numerators_match_window_series():
    # order_at_cusp tests each window's steps straight from its
    # numerators; the reference makes a cusp series of each window.  The
    # elements w_t2 E_4(t1 z) - w_t1 E_4(t2 z), w_t = (gcd(t, c)/t)^4,
    # lose their constant term at the denominator c, so their orders
    # there reach the later windows (16 at 1/32 of Gamma0(32)), some past
    # every prec below
    seen = set()
    for level in (8, 27, 32, 49, 125, 12):
        divs = divisors(level)
        pairs = [(t1, t2) for i, t1 in enumerate(divs) for t2 in divs[i + 1 :]]
        elements = [EisensteinElement(4, level, {1: 3, level: -2})]
        for c in divs:
            w = {t: Fraction(gcd(t, c), t) ** 4 for t in divs}
            elements += [EisensteinElement(4, level, {t1: w[t2], t2: -w[t1]})
                         for t1, t2 in pairs if t1 == 1 or c == level]
        for f in elements:
            for cusp in cusp_reps(level):
                for prec in WINDOW_PRECS:
                    want = window_order_reference(f, cusp, prec)
                    if want is None:
                        with pytest.raises(SeriesDomainError, match="precision-exhausted"):
                            order_at_cusp(f, cusp, prec)
                    else:
                        assert order_at_cusp(f, cusp, prec) == want, (f, cusp, prec)
                    seen.add(want)
    assert {0, 1, 2, 3, 4, 5, 8, 16, None} <= seen


def test_default_order_depth_is_one_past_the_sturm_bound():
    # By the valence formula a nonzero weight-k form has order at most
    # sturm_bound(k, N) at any one cusp, so order_at_cusp needs only the
    # exponents 0 .. sturm_bound.  The default depth must agree with a
    # window ten exponents deeper, built by expansion_at_cusp.  Some
    # classified quotient has order exactly sturm_bound at a cusp, so no
    # shorter default would do.
    matched = [match_eta(sp.eta) for cell in WEIGHT2_CELLS + WEIGHT4_CELLS
               for sp in enumerate_eta_in_e(*cell).pairs]
    assert len(matched) == 16 and None not in matched
    rng = random.Random(21)
    drawn = [random_p_element(rng, k, p, m) for k in (2, 4, 6)
             for p, m in ((2, 1), (2, 2), (2, 3), (3, 2), (5, 1), (7, 1)) for _ in range(4)]
    attained = False
    for i, f in enumerate(matched + drawn):
        bound = sturm_bound(f.k, f.level)
        for cusp in cusp_reps(f.level):
            order = order_at_cusp(f, cusp)
            assert order <= bound, (f, cusp)
            assert order == expansion_at_cusp(f, cusp, bound + 11).series.valuation(), (f, cusp)
            attained = attained or (i < len(matched) and order == bound)
    assert attained


PRIME_POWER_LEVELS = [n for n in range(1, 129) if prime_power(n) is not None]


def check_order_bound_reference(f: EisensteinElement) -> dict:
    """The former check_order_bound: order_at_cusp at every cusp_reps
    cusp, as its JSON."""
    level = f.level
    bound = order_sum_bound(level)
    orders, violations = {}, []
    for cusp in cusp_reps(level):
        v = order_at_cusp(f, cusp)
        orders[cusp.label()] = v
        cap = 2 if level == 4 and cusp.c == 2 else 1
        if v > cap:
            violations.append(f"order {v} at cusp {cusp.label()} exceeds cap {cap}")
    total = sum(orders.values())
    if total >= bound:
        violations.append(f"total order {total} reaches bound {bound}")
    return {
        "element": f.render(),
        "level": level,
        "orders": dict(sorted(orders.items())),
        "total": total,
        "bound": bound,
        "ok": not violations,
        "violations": violations,
    }


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_check_order_bound_matches_order_at_every_cusp(data):
    # one order per denominator, reported under each of its labels, is
    # the order at every cusp: drawn IN_P elements at every prime-power
    # level <= 128, for k >= 4 often forced to vanish at one denominator
    # (the constant term there cancels), so that orders above 0 occur
    k = data.draw(st.sampled_from([2, 4, 6]), label="k")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    seen_positive = False
    for n in PRIME_POWER_LEVELS:
        if k == 2 and n == 1:
            continue  # no weight-2 element at level 1
        p, m = prime_power(n)
        f = random_p_element(rng, k, p, m)
        if k > 2 and n > 1 and rng.random() < 0.7:
            divs = divisors(n)
            c0, t0 = rng.choice(divs), rng.choice(divs)
            weight = {t: Fraction(gcd(t, c0), t) ** k for t in divs}
            r = {t: f.coeffs.get(t, Fraction(0)) for t in divs}
            r[t0] = -sum(r[t] * weight[t] for t in divs if t != t0) / weight[t0]
            if r[1] and r[n]:
                f = EisensteinElement(k, n, r)
        report = check_order_bound(f)
        assert report.to_json() == check_order_bound_reference(f), f
        seen_positive = seen_positive or report.total > 0
    assert seen_positive or k == 2


def test_cusp_term_cache_is_bounded_and_keyed_on_d_mod_L():
    # the per-cusp maps are cached on (N, c, d mod L, k, prec) in a
    # bounded cache: d and d + L (a valid d whenever c | L) hit one entry
    # and give the same expansion; d + c, when L does not divide c, is
    # another entry
    assert _cusp_map.cache_info().maxsize is not None
    for n, a, c in ((27, 1, 3), (32, 3, 4), (49, 1, 7), (125, 2, 5), (8, 1, 1)):
        order = n // c
        assert order % c == 0
        f = EisensteinElement(4, n, {t: t + 1 for t in divisors(n)})
        base = Cusp(a, c, n)
        _cusp_map.cache_clear()
        want = expansion_at_cusp(f, base, 10).series.coeffs
        got = expansion_at_cusp(f, Cusp(a, c, n, base.d + order), 10).series.coeffs
        info = _cusp_map.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 1, 1), (n, a, c)
        assert [stored(x) for x in got] == [stored(x) for x in want]
        if c % order:  # d + c is another class mod L
            expansion_at_cusp(f, Cusp(a, c, n, base.d + c), 10)
            assert _cusp_map.cache_info().currsize == 2


def test_cusp_reps_returns_a_fresh_list():
    # the representatives are cached per level; a caller that changes
    # the list it got does not change the next call's
    want = [cu.label() for cu in cusp_reps(32)]
    got = cusp_reps(32)
    got.pop()
    got.append(Cusp(3, 4, 32))
    got.reverse()
    assert [cu.label() for cu in cusp_reps(32)] == want
    assert cusp_reps(32) is not cusp_reps(32)


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
    for k in (2, 4, 6, 8):
        cusp = Cusp(1, 2, 4)
        rows = []
        for e in (0, 1, 2):
            coords: dict[int, list[Fraction]] = {}
            for idx, t in enumerate((1, 2, 4)):
                basis = EisensteinElement.__new__(EisensteinElement)
                basis.k, basis.level, basis.coeffs = k, 4, {t: Fraction(1)}
                val = cusp_coefficient(basis, cusp, e)
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
                    val = cusp_coefficient(basis, cusp, e)
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


def test_cusp_code_does_no_cyclotomic_number_arithmetic(monkeypatch, capsys):
    # cusp expansions are built from integer steps, multiplied as integer
    # monomial lists by one kernels._mul_into call, and only
    # normalised, zero-tested and rendered: with CycNumber's products,
    # inverse, == and bool() disabled (it has no sums or lifts, see
    # test_cycnumber_interface_is_pinned), every cusp computation still
    # runs and gives the same result
    from etaq import cli

    f = EisensteinElement(4, 27, {1: 2, 3: -1, 9: 4, 27: 5})
    g = EisensteinElement(4, 9, {1: 1, 9: -1})  # vanishes at 1/9
    bound_elements = [JACOBI_EL, random_p_element(random.Random(5), 4, 3, 3)]
    argv = ["cusp-expand", "--element", "E4(1)-2*E4(9)+E4(27)", "--level", "27", "--cusp", "2/3"]
    h = EisensteinElement(6, 27, {1: 1, 9: Fraction(-7, 3), 27: 4})

    def run():
        x = expansion_at_cusp(f, Cusp(1, 1, 27), 8).series
        y = expansion_at_cusp(f, Cusp(2, 3, 27), 8).series
        z = expansion_at_cusp(g, Cusp(1, 9, 9), 6).series
        assert (x.cyc_order, y.cyc_order) == (27, 9)
        hx, hy = (expansion_at_cusp(h, cusp, 8).series for cusp in (Cusp(1, 1, 27), Cusp(2, 3, 27)))
        series = [x, y, z, x * hx, hy * y, x * hx * x, z * z]
        out = [[(c.order, c.terms, c.den) for c in s.coeffs] for s in series]
        out += [(s.valuation(), s.leading()[1].render(), s.render_text(var="w")) for s in series]
        out += [order_at_cusp(f, cusp) for cusp in cusp_reps(27)]
        out += [check_order_bound(el).to_json() for el in bound_elements]
        assert cli.main(argv) == 0
        out.append(capsys.readouterr().out)
        return out

    today = run()

    def refuse(*args, **kwargs):
        raise AssertionError("CycNumber arithmetic in the cusp code")

    for name in ("__mul__", "inverse", "__eq__", "__bool__"):
        monkeypatch.setattr(CycNumber, name, refuse)
    assert run() == today


# ---------------------------------------------------------------------------
# the Fricke involution W_N
# ---------------------------------------------------------------------------


def fricke(f: EisensteinElement) -> EisensteinElement:
    """f|W_N up to the factor N^(k/2): sum_t r_t t^(-k) E_k((N/t)z) for
    f = sum_t r_t E_k(tz).  At weight 2 it keeps the balance, since
    sum_t r_t t^(-2) / (N/t) = (1/N) sum_t r_t / t = 0."""
    n, k = f.level, f.k
    return EisensteinElement(k, n, {n // t: r / t**k for t, r in f.coeffs.items()})


FRICKE_EXPANSION_LEVELS = [p**m for p in (2, 3, 5, 7) for m in range(1, 6) if p**m <= 49]


def test_cusp_one_matches_the_fricke_image_at_infinity():
    # With d = 1 the cusp 1/1 takes M = (1 0; 1 1).  As f(z + 1) = f(z),
    # (z+1)^(-k) f(z/(z+1)) = (z+1)^(-k) f(-1/(z+1)) = N^(-k/2) (f|W_N)((z+1)/N),
    # so in q_{1,N} = e(z/N) coefficient n of f at 1/1 is N^(-k/2) zeta_N^n
    # times b_n, the q^n coefficient of f|W_N at infinity: a rational
    # series that no cusp code touches.  Compared on reduced coordinates,
    # with zeta_N^n b_n built by the reference numbers.
    rng = random.Random(1728)
    prec, compared = 36, 0
    for n in FRICKE_EXPANSION_LEVELS:
        p, m = prime_power(n)
        for k in (2, 4, 6, 8):
            f = random_p_element(rng, k, p, m)
            got = expansion_at_cusp(f, Cusp(1, 1, n), prec).series
            want = fricke(f).expansion(prec)
            for e in range(prec):
                zeta_b = cyc_reference.CycNumber(n, {e % n: want.coeff(e)})
                assert got.coeff(e).reduced() == zeta_b.reduced(), (f, e)
                compared += 1
    assert compared == 1728


FRICKE_ORDER_LEVELS = sorted(
    {p**m for _, p, m in WEIGHT2_CELLS + WEIGHT4_CELLS + EXCLUDED_CELLS} | {2**7, 3**5, 5**4, 7**3}
)


def test_orders_are_symmetric_under_fricke():
    # W_N maps the cusp 1/c to 1/(N/c), so the order of f at 1/c is the
    # order of f|W_N at 1/(N/c), for every c | N.  The matches of the 16
    # classified quotients reach order 2, so the valuation scan runs on
    # nonzero orders in windows past the first; random draws cover every
    # published level and four deeper ones, at k = 2, 4 and 6.
    classified = [match_eta(sp.eta) for cell in WEIGHT2_CELLS + WEIGHT4_CELLS
                  for sp in enumerate_eta_in_e(*cell).pairs]
    assert len(classified) == 16 and None not in classified
    rng = random.Random(324)
    drawn = [random_p_element(rng, k, *prime_power(n)) for n in FRICKE_ORDER_LEVELS
             for k in (2, 4, 6) if (k, n) != (2, 1) for _ in range(2)]
    compared, seen = 0, set()
    for f in classified + drawn:
        g, n = fricke(f), f.level
        for c in divisors(n):
            v = order_at_cusp(f, Cusp(1, c, n))
            assert v == order_at_cusp(g, Cusp(1, n // c, n)), (f, c)
            compared += 1
            seen.add(v)
    assert compared == 356 and seen == {0, 1, 2}
