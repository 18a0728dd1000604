"""QSeries ring semantics, the Ramanujan operator, the pentagonal eta
series against its naive-product oracle (plain integer lists), and the
differential test against the former scale-24 QSeries."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from etaq.arith import bernoulli, divisors, sigma_range
from etaq.cusps import Cusp, cusp_reps, expansion_at_cusp
from etaq.eisenstein import EisensteinElement, eisenstein_series
from etaq.eta import EtaQuotient
from etaq.kernels import _mul_into
from etaq.series import QSeries, SeriesDomainError, _power
from cyc_reference import CycNumber, reference
from qseries_reference import QSeries as OldQSeries, assert_matches_reference, to_reference


def naive_euler_product(nterms: int) -> list[int]:
    """Coefficients of prod_{n=1..nterms} (1 - q^n) through q^nterms,
    computed by repeated sparse multiplication on plain lists."""
    coeffs = [0] * (nterms + 1)
    coeffs[0] = 1
    for n in range(1, nterms + 1):
        for i in range(nterms, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
    return coeffs


def eta_series(nterms: int) -> QSeries:
    """q^(1/24) * prod (1 - q^n) on its first nterms q-steps.

    Sparse generation via the pentagonal number theorem: the steps
    present are k(3k-1)/2 for integer k, with sign (-1)^k.
    """
    vec = [0] * nterms
    k = 0
    while k * (3 * k - 1) // 2 < nterms:
        for kk in (k, -k) if k else (0,):
            n = kk * (3 * kk - 1) // 2
            if n < nterms:
                vec[n] = -1 if kk % 2 else 1
        k += 1
    return QSeries(1, vec)


def substitute_power(x: QSeries, t: int) -> QSeries:
    """q -> q^t: the offset and every exponent are multiplied by t.
    Nothing in the library needs it; the tests build E_k(tz) and
    rescaled eta expansions with it."""
    if t < 1:
        raise ValueError("substitution power must be >= 1")
    vec = [0] * (x.prec * t)
    vec[::t] = x.coeffs
    return QSeries(x.offset * t, vec, x.den)


def truncate(x: QSeries, prec: int) -> QSeries:
    """The former QSeries.truncate: the first prec steps."""
    if prec >= x.prec:
        return x
    return QSeries(x.offset, x.coeffs[:prec], x.den)


def agrees_with(x: QSeries, y: QSeries) -> bool:
    """The former QSeries.agrees_with: exact coefficient agreement over
    the shared known window."""
    return (x - y).is_zero_to_prec()


def series(offset: int, values) -> QSeries:
    """The series with the given rational coefficient values."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return QSeries(offset, [int(v * den) for v in values], den)


def cusp_series(steps) -> QSeries:
    """The cusp series with these steps of one order, built through
    QSeries._cyclotomic from their numerators over one common
    denominator; each normalised step comes back as it went in, as a
    reference number."""
    [order] = {c.order for c in steps}
    den = lcm(*(c.den for c in steps))
    accs = [{j: n * (den // c.den) for j, n in c.terms.items()} for c in steps]
    return QSeries._cyclotomic(CycNumber, order, accs, den)


def rand_series(rng, residue: int = 0, maxlen: int = 8) -> QSeries:
    """Random rational series on q^(residue/24) Z[[q]]."""
    offset = residue + 24 * rng.randint(-4, 4)
    length = rng.randint(1, maxlen)
    return series(offset, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)])


def is_one(x: QSeries) -> bool:
    """x = 1 + O(q^m) with m > 0 (leading stored zeros allowed)."""
    exps = [x.offset + 24 * n for n in range(x.prec)]
    return 0 in exps and all(x.coeff(n) == (e == 0) for n, e in enumerate(exps))


def test_basic_products():
    one_plus_q = QSeries(0, [1, 1, 0, 0, 0])
    one_minus_q = QSeries(0, [1, -1, 0, 0, 0])
    prod = one_plus_q * one_minus_q
    assert [prod.coeff(i) for i in range(prod.prec)] == [1, 0, -1, 0, 0]

    # q^(1/24) * q^(1/24) = q^(2/24)
    a = QSeries(1, [1] + [0] * 29)
    sq = a * a
    assert sq.offset == 2 and sq.coeff(0) == 1


def test_geometric_inverse():
    one_minus_q = QSeries(0, [1, -1] + [0] * 10)
    inv = one_minus_q.inverse()
    assert [inv.coeff(i) for i in range(inv.prec)] == [1] * 12


def test_inverse_of_nonunit_numerators():
    # leading numerators that are not units of Z, negative ones, and a
    # denominator: the reciprocal leaves the integers but stays exact
    for x in (series(0, [2, 3, 1, 0, 5, 0, 0]), series(48, [Fraction(-3, 5), 1, Fraction(7, 2), 0, 1])):
        inv = x.inverse()
        assert inv.offset == -x.offset and inv.prec == x.prec
        assert is_one(x * inv)
    lead_zeros = series(0, [0, 0, -2, 1, 0, 3])
    inv = lead_zeros.inverse()
    assert inv.offset == -48 and inv.prec == 4
    assert is_one(lead_zeros * inv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_inverse_random(seed):
    rng = random.Random(seed)
    x = rand_series(rng, rng.randint(0, 23))
    if x.is_zero_to_prec():
        return
    assert is_one(x * x.inverse())


def test_pow_zero_and_negative():
    x = QSeries(0, [1, 2, 3] + [0] * 7)
    assert (x**0).coeff(0) == 1
    xinv = x**-1
    assert (x * xinv).coeff(0) == 1
    assert (x * xinv).coeff(1) == 0
    assert is_one(x**3 * x**-3)


@pytest.mark.parametrize("e", [2, 4])
def test_eta_power_times_inverse_power_is_one(e):
    es = eta_series(30)
    assert is_one(es**e * es**-e)


def test_negative_pow_requires_unit():
    zero_lead = QSeries(0, [0, 0])
    with pytest.raises(SeriesDomainError):
        zero_lead.inverse()


def test_offsets_add_and_lattice_mismatch():
    # q^(1/2) (1 + 5q) * q^(1/3) (1 + 7q) = q^(5/6) (1 + 12q + 35q^2):
    # products live on the sum of the two shifts
    x = QSeries(12, [1, 5, 0])
    y = QSeries(8, [1, 7, 0])
    z = x * y
    assert z.offset == 20 and z.prec == 3
    assert [z.coeff(i) for i in range(3)] == [1, 12, 35]
    assert z.render_text() == "1*q^(5/6) + 12*q^(11/6) + 35*q^(17/6) + O(q^(23/6))"
    # a sum needs one lattice: shifts that differ mod 24 are refused
    with pytest.raises(SeriesDomainError, match="lattice-mismatch"):
        _ = x + y
    assert (x + QSeries(36, [1, 1])).offset == 12


def test_precision_propagation_pessimistic():
    x = QSeries(0, [1, 1, 0])  # known through q^2
    y = QSeries(48, [1] + [0] * 6)  # q^2, known through q^8
    p = x * y
    assert p.offset == 48 and p.prec == 3  # known through q^(2 + 3 - 1)
    s = x + y
    assert s.offset == 0 and s.prec == 3
    # coefficients below an offset are exact zeros, so a sum with a
    # late-starting series is still fully known on the early window
    early = QSeries(0, [1]) + QSeries(120, [1])
    assert early.prec == 1 and early.coeff(0) == 1
    # stored leading zeros are exact too: x2 = q^2 + q^3 + O(q^6) times
    # y2 = 1 + 2q + 3q^2 + O(q^3) is known through q^4, not only q^2
    x2, y2 = QSeries(0, [0, 0, 1, 1, 0, 0]), QSeries(0, [1, 2, 3])
    p2 = x2 * y2
    assert p2.prec == 5 and [p2.coeff(i) for i in range(5)] == [0, 0, 1, 3, 5]
    assert (y2 * x2).prec == 5


def test_ring_axioms_random():
    rng = random.Random(31)
    for _ in range(60):
        r = rng.randint(0, 23)
        a = rand_series(rng)
        b, c = rand_series(rng, r), rand_series(rng, r)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert agrees_with(lhs, rhs)
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert agrees_with(lhs, rhs)
        assert agrees_with(a * b, b * a)
        assert (b - b).is_zero_to_prec()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_pow_additivity(ea, eb, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = rand_series(rng, rng.randint(0, 23))
    if x.coeffs[0] == 0:
        x = QSeries(x.offset, (x.den,) + x.coeffs[1:], x.den)
    lhs = x ** (ea + eb)
    rhs = (x**ea) * (x**eb)
    assert agrees_with(lhs, rhs)


def test_derivation_rule():
    # random shifts in 1/24 units: D scales q^(a/24 + n) by a/24 + n
    rng = random.Random(17)
    for _ in range(60):
        x = rand_series(rng, rng.randint(0, 23))
        y = rand_series(rng, rng.randint(0, 23))
        lhs = (x * y).ramanujan_d()
        rhs = x.ramanujan_d() * y + x * y.ramanujan_d()
        assert agrees_with(lhs, rhs)


def test_d_examples():
    one = QSeries(0, [1, 0, 0, 0, 0])
    assert one.ramanujan_d().is_zero_to_prec()
    m = QSeries(1, [1] + [0] * 9)
    d = m.ramanujan_d()
    assert d.coeff(0) == Fraction(1, 24) and d.den == 24
    assert d.ramanujan_d().coeff(0) == Fraction(1, 576)


def test_eta_series_against_naive_product():
    prec_q = 500
    pentagonal = eta_series(prec_q + 1)
    oracle = naive_euler_product(prec_q)
    assert pentagonal.offset == 1 and pentagonal.prec == prec_q + 1
    assert [pentagonal.coeff(n) for n in range(prec_q + 1)] == oracle


def test_eta_series_examples():
    es = eta_series(21)
    # q^(1/24) (1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...)
    got = {n: int(es.coeff(n)) for n in range(es.prec) if es.coeff(n)}
    assert got == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    assert es.coeff(3) == 0


def test_valuation_and_zero_to_prec():
    assert QSeries(0, [1, 8, 24]).valuation() == 0
    assert QSeries(0, [0, 0, 1, 1]).valuation() == 2
    assert QSeries(0, [0, 0, 0]).valuation() is None
    hidden_zero = cusp_series([CycNumber(4, [1, 1, 1, 1])])
    assert hidden_zero.valuation() is None  # exact cyclotomic zero


def test_cyclotomic_series_mul():
    z = CycNumber.root_of_unity(4)
    one, zero = CycNumber.from_rational(1, 4), CycNumber.zero(4)
    x = cusp_series([z, one, zero, zero])
    y = cusp_series([one, z, zero, zero])
    p = x * y
    assert p.coeff(0) == z
    assert p.coeff(1) == (z * z + 1)  # zeta_4^2 + 1 = 0
    assert p.coeff(1) == CycNumber.zero(4)
    assert p.coeff(2) == z


def test_mixed_rational_cyclotomic():
    # a rational series and a cusp series share no variable: neither
    # their product (on either side) nor their sum is defined
    z = CycNumber.root_of_unity(3)
    x = series(0, [Fraction(1, 2), 1, 0, 0])
    y = cusp_series([z] + [CycNumber.zero(3)] * 3)
    for op in (lambda: x * y, lambda: y * x, lambda: x + y):
        with pytest.raises(TypeError):
            op()


def test_cusp_series_refuse_rational_only_operations():
    # a cusp series is multiplied and read, never summed, scaled,
    # differentiated or inverted; a rational series still is
    x = expansion_at_cusp(EisensteinElement(4, 9, {1: 1, 3: 2, 9: -1}), Cusp(1, 3, 9), 4).series
    assert x.cyc_order == 3 and x.valuation() == 0
    z = CycNumber.root_of_unity(3)
    r = series(0, [2, Fraction(2, 3), 5, 0])
    removed = {
        "sum": lambda s: s + s,
        "rational sum": lambda s: s + r,
        "negation": lambda s: -s,
        "difference": lambda s: s - s,
        "rational difference": lambda s: r - s,
        "difference with a rational": lambda s: s - r,
        "int multiple": lambda s: 3 * s,
        "Fraction multiple": lambda s: s * Fraction(3, 7),
        "scalar_mul": lambda s: s.scalar_mul(2),
        "cyclotomic multiple": lambda s: s * z,
        "D": lambda s: s.ramanujan_d(),
        "inverse": lambda s: s.inverse(),
        "negative power": lambda s: s**-1,
    }
    for name, op in removed.items():
        match = "difference is defined for rational series only" if "difference" in name else None
        with pytest.raises(TypeError, match=match):
            op(x)
        if name != "cyclotomic multiple":
            assert op(r).cyc_order is None, name

    def values(s):
        return [s.coeff(n) for n in range(s.prec)]

    assert values(r + r) == [4, Fraction(4, 3), 10, 0]
    assert (r - r).is_zero_to_prec()
    assert values(3 * r) == [6, 2, 15, 0]
    assert values(r * Fraction(3, 7)) == [Fraction(6, 7), Fraction(2, 7), Fraction(15, 7), 0]
    assert values(r.ramanujan_d()) == [0, Fraction(2, 3), 10, 0]
    assert is_one(r * r.inverse()) and is_one(r * r**-1)
    with pytest.raises(TypeError):
        _ = r * z


def test_substitute_power():
    x = QSeries(24, [1, 2] + [0] * 5)  # q + 2q^2 + O(q^8)
    s = substitute_power(x, 3)
    assert s.offset == 72 and s.coeff(0) == 1 and s.coeff(3) == 2 and s.prec == 21


def test_render_and_json():
    x = series(0, [Fraction(-1, 24), 1])
    assert x.render_text() == "-1/24 + 1*q + O(q^2)"
    assert x.to_json_triples() == [[-1, 24, 0], [1, 1, 24]]
    assert x.to_json_triples(1) == [[-1, 24, 0], [1, 1, 1]]
    y = QSeries(-24, [0, 3, 0, -2])  # den 1
    assert y.to_json_triples() == [[3, 1, 0], [-2, 1, 48]]
    assert y.to_json_triples(1) == [[3, 1, 0], [-2, 1, 2]]
    with pytest.raises(ValueError):
        QSeries(1, [1]).to_json_triples(1)


def test_render_skips_exactly_zero_cusp_steps():
    # 1 + zeta3 + zeta3^2 is stored with nonzero numerators but is
    # exactly zero, so it is left out like an empty step
    z = CycNumber(3, [1, 1, 1])
    x = cusp_series([CycNumber.from_rational(2, 3), z, z])
    assert x.render_text(var="w") == "(2) + O(w^3)"
    y = cusp_series([z, CycNumber.root_of_unity(3), z])
    assert y.render_text(var="w") == "(zeta3)*w + O(w^3)"
    assert cusp_series([z]).render_text() == "0 + O(q)"


def render_per_term(x: QSeries, var: str = "q") -> str:
    """Reference: the former QSeries.render_text, one _power call (a gcd
    and its branches) per term."""
    parts = []
    for n, c in enumerate(x.coeffs):
        if x.cyc_order is not None:
            if not c.terms or c.is_zero():
                continue
            cs = f"({c.render()})"
        elif not c:
            continue
        else:
            cs = str(c) if x.den == 1 else str(Fraction(c, x.den))
        e = x.offset + 24 * n
        parts.append(cs if e == 0 else f"{cs}*{_power(var, e)}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} + O({_power(var, x.offset + 24 * x.prec)})"


def test_render_matches_per_term_powers():
    # offsets -100..100 reach every gcd with 24 and put the exponents 0
    # and 1 (q^0 and q^1, written without a power) inside and outside the
    # window; denominators 1, 2 and 3 show integer and fraction terms
    rng = random.Random(29)
    for offset in range(-100, 101):
        for den in (1, 2, 3):
            coeffs = [rng.choice([0, 0, 1, -1, rng.randint(-50, 50)]) for _ in range(rng.randint(1, 9))]
            x = QSeries(offset, [1, *coeffs], den)
            for var in ("q", "w"):
                assert x.render_text(var) == render_per_term(x, var), (offset, den)
    for level, element in ((9, EisensteinElement(4, 9, {1: 1, 3: 2, 9: -1})),
                           (8, EisensteinElement(2, 8, {1: 1, 2: -4, 8: 8}))):
        for cusp in cusp_reps(level):
            x = expansion_at_cusp(element, cusp, 7).series
            assert x.render_text(var="w") == render_per_term(x, "w"), cusp


def test_constructor_normal_form():
    x = QSeries(0, [6, -4, 0], 8)
    assert (x.coeffs, x.den) == ((3, -2, 0), 4)
    with pytest.raises(SeriesDomainError):
        QSeries(0, [])


@pytest.mark.parametrize(
    "coeffs, den",
    [
        ([1, CycNumber.root_of_unity(4)], 1),
        ([CycNumber.root_of_unity(4), 1], 1),
        ([CycNumber.root_of_unity(4), CycNumber.root_of_unity(3)], 1),
        ([CycNumber.root_of_unity(4)], 2),
        ([CycNumber.root_of_unity(4)], 1),
        ([CycNumber.zero(3)], 1),
        ([Fraction(1, 2)], 1),
        ([1, Fraction(2)], 2),
        ([1, 2.0], 1),
    ],
)
def test_constructor_rejects_mixed_coefficients(coeffs, den):
    # a series is rational (ints over den) or cyclotomic (CycNumbers of
    # one order over 1), never a mixture; the constructor takes ints only
    with pytest.raises(ValueError, match="built by QSeries._cyclotomic"):
        QSeries(0, coeffs, den)


def test_truncate_and_coeff_bounds():
    x = QSeries(0, [1, 2, 3, 4])
    t = truncate(x, 2)
    assert t.prec == 2
    with pytest.raises(SeriesDomainError):
        t.coeff(3)
    assert x.coeff(-5) == 0


# ---------------------------------------------------------------------------
# differential test against the former scale-24 QSeries
# ---------------------------------------------------------------------------


def old_eisenstein_expansion(element: EisensteinElement, prec: int) -> OldQSeries:
    """The former EisensteinElement.expansion: Fraction slots, one
    substituted E_k(tz) per term, summed at scale 1."""
    k = element.k
    out = OldQSeries.constant(0, 1, prec)
    for t, r in element.coeffs.items():
        nterms = -(-prec // t)
        table = sigma_range(k - 1, nterms - 1)
        ek = OldQSeries(1, 0, [Fraction(-bernoulli(k), 2 * k)] + table[1:nterms], nterms)
        out = out + ek.substitute_power(t).truncate(prec) * r
    return out


def random_element(rng) -> EisensteinElement:
    level = rng.choice([1, 2, 4, 6, 9, 12, 16, 25])
    k = rng.choice([4, 6, 8]) if level == 1 else rng.choice([2, 4, 6])
    divs = divisors(level)
    while True:
        coeffs = {t: Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for t in divs if rng.random() < 0.7}
        if k == 2:
            # keep the balance sum r_t/t = 0 by fixing r_1
            coeffs = {t: r for t, r in coeffs.items() if t > 1}
            coeffs[1] = -sum(r / t for t, r in coeffs.items())
        if coeffs:
            return EisensteinElement(k, level, coeffs)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_eisenstein_expansions_match_reference(seed):
    rng = random.Random(seed)
    element = random_element(rng)
    prec = rng.randint(1, 40)
    new = element.expansion(prec)
    assert_matches_reference(new, old_eisenstein_expansion(element, prec))
    t = rng.randint(1, 5)
    k = rng.choice([2, 4, 6, 10])
    table = sigma_range(k - 1, prec - 1)
    e_old = OldQSeries(1, 0, [Fraction(-bernoulli(k), 2 * k)] + table[1:prec], prec)
    assert_matches_reference(substitute_power(eisenstein_series(k, prec), t), e_old.substitute_power(t))
    old = old_eisenstein_expansion(element, prec)
    assert_matches_reference(substitute_power(new, t), old.substitute_power(t))


def random_operand(rng, residue: int) -> QSeries:
    """An eta expansion, an Eisenstein combination or a random series,
    on q^(residue/24) Z[[q]] (residue 0 for Eisenstein combinations)."""
    kind = rng.choice(["eta", "eta", "eisenstein", "random"])
    if kind == "eisenstein" and residue == 0:
        return random_element(rng).expansion(rng.randint(1, 30))
    if kind == "random":
        return rand_series(rng, residue, maxlen=20)
    level = rng.choice([1, 2, 4, 6, 8, 9, 12])
    exps = {t: rng.randint(-6, 6) for t in divisors(level)}
    shift = (residue - EtaQuotient(level, exps).offset()) % 24
    exps[1] += shift - 24 if shift > 12 else shift  # offset = residue mod 24
    f = EtaQuotient(level, exps)
    return f.expansion(rng.randint(1, 30))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_operation_chains_match_reference(seed):
    # sums, differences, products, scalar multiples, D and D^2, each
    # applied to the same operands in both layouts; every intermediate
    # result must agree in coefficients, valuation, precision, text and
    # JSON triples
    rng = random.Random(seed)
    residue = rng.choice([0, 0, 1, 8, 12, 23])
    pool_new, pool_old = [], []
    for _ in range(3):
        x = random_operand(rng, residue if rng.random() < 0.8 else rng.randint(0, 23))
        pool_new.append(x)
        pool_old.append(to_reference(x))
        assert_matches_reference(x, pool_old[-1])
    for _ in range(6):
        i, j = rng.randrange(len(pool_new)), rng.randrange(len(pool_new))
        x, y, xo, yo = pool_new[i], pool_new[j], pool_old[i], pool_old[j]
        op = rng.choice(["add", "sub", "mul", "mul", "d", "d2", "scalar"])
        if op in ("add", "sub") and (x.offset - y.offset) % 24:
            with pytest.raises(SeriesDomainError):
                _ = x + y
            continue
        if op == "add":
            new, old = x + y, xo + yo
        elif op == "sub":
            new, old = x - y, xo - yo
        elif op == "mul":
            new, old = x * y, xo * yo
        elif op == "d":
            new, old = x.ramanujan_d(), xo.ramanujan_d()
        elif op == "d2":
            new, old = x.ramanujan_d().ramanujan_d(), xo.ramanujan_d().ramanujan_d()
        else:
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            new, old = x * c, xo * c
        if op == "mul" and (x.is_zero_to_prec() or y.is_zero_to_prec()):
            # the former layout trimmed a factor that is zero to precision
            # up to its last 1/24 slot, and so claimed an O-term off the
            # q-step lattice; both products are zero as far as known
            assert new.is_zero_to_prec() and old.is_zero_to_prec()
            continue
        assert_matches_reference(new, old)
        pool_new.append(new)
        pool_old.append(old)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cusp_series_chains_match_reference(seed):
    # cyclotomic series at a cusp, including elements that vanish there
    # (stored leading zeros): products against the reference
    rng = random.Random(seed)
    level = rng.choice([4, 8, 9, 16, 25, 27])
    cusp = rng.choice(cusp_reps(level))
    prec = rng.randint(1, 12)
    xs = []
    for _ in range(2):
        k = rng.choice([4, 6])
        coeffs = {t: rng.randint(-3, 3) for t in divisors(level)}
        if rng.random() < 0.5:
            coeffs = {t: 1 for t in divisors(level) if t > 1}
        element = EisensteinElement(k, level, coeffs)
        xs.append(expansion_at_cusp(element, cusp, prec).series)
    x, y = xs
    xo, yo = (OldQSeries(1, 0, list(s.coeffs), s.prec) for s in xs)
    for new, old in ((x * y, xo * yo), (x * x * y, xo * xo * yo)):
        assert_matches_reference(new, old, var="w")


# ---------------------------------------------------------------------------
# differential test of the cyclotomic product against the schoolbook loop
# ---------------------------------------------------------------------------


def schoolbook_cyc_product(x: QSeries, y: QSeries) -> QSeries:
    """The former cyclotomic branch of QSeries.__mul__: one reference
    CycNumber product and one sum, each normalised, per pair of terms."""
    assert x.cyc_order == y.cyc_order is not None
    n = min(x.prec + y._lead(), y.prec + x._lead())
    out = [CycNumber.zero(x.cyc_order)] * n
    for i, xc in enumerate(x.coeffs[:n]):
        if xc.terms:
            for j in range(min(y.prec, n - i)):
                yc = y.coeffs[j]
                if yc.terms:
                    out[i + j] = out[i + j] + reference(xc) * reference(yc)
    return cusp_series(out)


def assert_same_representatives(new: QSeries, ref: QSeries):
    # the exact coordinates of every step on the zeta_L^j basis: a cusp
    # series' steps share their product's or scatter's denominator and
    # are not reduced, so (terms, den) differ where the values do not
    assert (new.offset, new.prec, new.den, new.cyc_order) == (ref.offset, ref.prec, ref.den, ref.cyc_order)
    for a, b in zip(new.coeffs, ref.coeffs):
        assert (a.order, a.coeffs) == (b.order, b.coeffs)


def drawn_element(data, level: int, k: int) -> EisensteinElement:
    """An element with large rational weights on a drawn support (no
    weight-2 balance needed); with a drawn flag, r is set to make its
    constant term vanish at one denominator c0, so that it has a stored
    leading zero at the cusps with that denominator."""
    divs = divisors(level)
    support = data.draw(st.lists(st.sampled_from(divs), min_size=1, max_size=4, unique=True))
    r = {t: Fraction(data.draw(st.integers(-10**4, 10**4)), data.draw(st.integers(1, 100))) for t in support}
    if len(r) > 1 and data.draw(st.booleans()):
        # sum_t r_t (gcd(t, c0)/t)^k = 0: the q^0 coefficient vanishes at c0
        c0 = data.draw(st.sampled_from(divs))
        t0, *rest = support
        weight = {t: Fraction(gcd(t, c0), t) ** k for t in support}
        r[t0] = -sum(r[t] * weight[t] for t in rest) / weight[t0]
    element = EisensteinElement.__new__(EisensteinElement)
    element.k, element.level, element.coeffs = k, level, r
    return element


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_products_at_one_cusp_match_schoolbook(data):
    # two drawn elements of a level from 4 to 125, expanded at every cusp
    # of it: x * y, y * x, x * x and products of a product equal the
    # schoolbook loop step for step, and (x ** 0) * x is x
    n = data.draw(st.integers(4, 125), label="level")
    k = data.draw(st.sampled_from([2, 4, 6, 8]), label="k")
    f, g = drawn_element(data, n, k), drawn_element(data, n, k)
    precs = [data.draw(st.integers(1, 10)) for _ in range(2)]
    for cusp in cusp_reps(n):
        x, y = (expansion_at_cusp(e, cusp, prec).series for e, prec in zip((f, g), precs))
        xy = x * y
        for a, b in ((x, y), (y, x), (x, x), (xy, x), (y, xy), (xy, xy)):
            assert_same_representatives(a * b, schoolbook_cyc_product(a, b))
        assert_same_representatives(x**0 * x, x)
        assert_same_representatives(xy**0 * xy, xy)


def test_products_refuse_other_orders():
    # a cusp series is multiplied only in its own local variable: the
    # expansions at 1/1 and 2/3 of Gamma0(27) are series in
    # e^(2 pi i z/27) and e^(2 pi i z/3)
    f = EisensteinElement(4, 27, {1: 2, 3: -1, 27: 5})
    x = expansion_at_cusp(f, Cusp(1, 1, 27), 8).series
    y = expansion_at_cusp(f, Cusp(2, 3, 27), 8).series
    assert (x.cyc_order, y.cyc_order) == (27, 9)
    for a, b in ((x, y), (y, x)):
        with pytest.raises(TypeError):
            _ = a * b


def test_cusp_series_built_unchecked_equal_checked_ones():
    # expansions, products and powers are built by QSeries._cyclotomic
    # from integer numerators; each equals the series built from its own
    # steps, has offset 0 and den 1, and every step keeps the class
    # invariant (a positive den, no zero numerator)
    rng = random.Random(18)
    for level in (4, 9, 12, 27, 32):
        f = EisensteinElement(4, level, {t: rng.randint(-3, 3) for t in divisors(level)})
        g = EisensteinElement(6, level, {t: 1 for t in divisors(level) if t > 1})
        for cusp in cusp_reps(level):
            x, y = (expansion_at_cusp(e, cusp, rng.randint(1, 10)).series for e in (f, g))
            for s in (x, y, x * y, y * x, x * x, x * y * x, y**0, y**3):
                assert (s.offset, s.den) == (0, 1)
                assert_same_representatives(s, cusp_series(s.coeffs))
                for c in s.coeffs:
                    assert c.order == s.cyc_order
                    assert 0 not in c.terms.values()
                    assert c.den > 0


def random_cusp_pair(rng, leads: list[int]) -> list[QSeries]:
    """Two cusp series of one order: expansions of two elements (some
    vanish there) at one cusp, or hand-made series with per-step
    denominators.  leads[i] stored zeros are put in front of series i."""
    if rng.random() < 0.6:
        level = rng.choice([4, 8, 9, 16, 25, 27, 32, 49])
        cusp = rng.choice(cusp_reps(level))
        out = []
        for _ in range(2):
            k = rng.choice([4, 6, 8])
            coeffs = {t: rng.randint(-3, 3) for t in divisors(level)}
            if rng.random() < 0.3:
                coeffs = {t: 1 for t in divisors(level) if t > 1}
            out.append(expansion_at_cusp(EisensteinElement(k, level, coeffs), cusp, rng.randint(1, 12)).series)
    else:
        order = rng.choice([1, 2, 3, 4, 8, 9, 12, 25, 27])
        out = []
        for _ in range(2):
            vec = []
            for _ in range(rng.randint(1, 10)):
                terms = {rng.randint(0, 2 * order): Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                         for _ in range(rng.randint(0, 3))}
                vec.append(CycNumber(order, terms))
            out.append(cusp_series(vec))
    return [s if not lead else cusp_series([CycNumber.zero(s.cyc_order)] * lead + list(s.coeffs))
            for s, lead in zip(out, leads)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_cyclotomic_product_matches_schoolbook(seed):
    # products of cusp series of one cyclotomic order, expansions or
    # hand-made with per-step denominators, and operands with stored
    # leading zeros, whose _lead() sets the product's precision: the
    # same offset, prec and (order, terms, den) at every step
    rng = random.Random(seed)
    x, y = random_cusp_pair(rng, [rng.choice([0, 0, 1, 3]) for _ in range(2)])
    for a, b in ((x, y), (y, x), (x, x)):
        assert_same_representatives(a * b, schoolbook_cyc_product(a, b))


def test_cyclotomic_product_cases():
    # each case the hypothesis test draws, pinned once
    level = 27
    f = EisensteinElement(4, level, {1: 2, 3: -1, 27: 5})
    g = EisensteinElement(6, level, {1: 1, 9: Fraction(-7, 3), 27: 4})
    for cusp, order in ((Cusp(1, 1, level), 27), (Cusp(2, 3, level), 9), (Cusp(1, 27, level), 1)):
        x, y = (expansion_at_cusp(e, cusp, 8).series for e in (f, g))
        assert (x * y).cyc_order == order
        assert_same_representatives(x * y, schoolbook_cyc_product(x, y))
        assert_same_representatives(y * x, schoolbook_cyc_product(y, x))

    # E_4(z) - E_4(9z) vanishes at the cusp 1/9: a stored leading zero,
    # so its square and its products with w know more steps than either
    # factor
    z = expansion_at_cusp(EisensteinElement(4, 9, {1: 1, 9: -1}), Cusp(1, 9, 9), 6).series
    x = expansion_at_cusp(EisensteinElement(6, 9, {1: 2, 3: Fraction(-1, 5), 9: 7}), Cusp(1, 9, 9), 6).series
    assert z._lead() == 1 and z.cyc_order == x.cyc_order == 1
    zero = CycNumber.zero(1)
    w = cusp_series([zero, zero, CycNumber(1, {0: Fraction(2, 3)}), CycNumber(1, {0: 5})])
    prod = z * w
    assert prod.prec == min(z.prec + w._lead(), w.prec + z._lead()) > min(z.prec, w.prec)
    assert (z * z).prec == 7
    zx = z * x
    for a, b in ((z, w), (w, z), (z, x), (x, z), (z, z), (zx, z), (x, zx), (zx, zx)):
        assert_same_representatives(a * b, schoolbook_cyc_product(a, b))
    assert_same_representatives(z**0 * z, z)


# ---------------------------------------------------------------------------
# differential test of the stored monomials against the rebuild per product
# ---------------------------------------------------------------------------


def cyc_monomials_reference(s: QSeries, n: int):
    """The former QSeries._cyc_monomials: the nonzero monomials (i, j, num)
    of the steps i < n, rebuilt for every product over the lcm of those
    steps' denominators."""
    cs = s.coeffs[:n]
    den = lcm(*(c.den for c in cs))
    return [(i, j, v * (den // c.den)) for i, c in enumerate(cs) for j, v in c.terms.items()], den


def rebuilt_product(x: QSeries, y: QSeries) -> QSeries:
    """The former cyclotomic branch of QSeries.__mul__, on monomial lists
    rebuilt from both operands' steps."""
    n = min(x.prec + y._lead(), y.prec + x._lead())
    order = x.cyc_order
    (xs, dx), (ys, dy) = cyc_monomials_reference(x, n), cyc_monomials_reference(y, n)
    acc: list[dict[int, int]] = [{} for _ in range(n)]
    _mul_into(acc, xs, ys, order)
    zero = CycNumber.zero(order)
    return cusp_series([CycNumber._normal(order, a, dx * dy) if a else zero for a in acc])


def stored_monomial_products(x: QSeries, y: QSeries):
    """(new, reference) pairs of cusp series at one cusp: expansions,
    whose monomials come from the scatter; a product, whose monomials
    come from the product kernel; and a series built from normalised
    steps over their lcm denominator."""
    z = cusp_series(x.coeffs)
    xy = x * y
    for a, b in ((x, y), (y, x), (x, x), (z, y), (xy, x), (y, xy), (z, z)):
        yield a * b, rebuilt_product(a, b)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stored_monomial_products_match_rebuilt_ones(data):
    # elements with large rational weights (some vanishing at a cusp) at
    # one cusp of a level; every product, also of a product and of a
    # series that is multiplied more than once, equals the rebuild path
    # step for step
    n = data.draw(st.sampled_from([4, 8, 9, 12, 16, 25, 27, 32, 49, 125]), label="level")
    k = data.draw(st.sampled_from([2, 4, 6, 8]), label="k")
    cusp = data.draw(st.sampled_from(cusp_reps(n)))
    series_at = []
    for _ in range(2):
        support = data.draw(st.lists(st.sampled_from(divisors(n)), min_size=1, unique=True))
        element = EisensteinElement.__new__(EisensteinElement)  # no weight-2 balance needed
        element.k, element.level = k, n
        element.coeffs = {
            t: Fraction(data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(1, 10**3)))
            for t in support
        }
        series_at.append(expansion_at_cusp(element, cusp, data.draw(st.integers(1, 14))).series)
    for new, ref in stored_monomial_products(*series_at):
        assert_same_representatives(new, ref)


def test_stored_monomial_product_cases():
    # two elements at the cusps 1/1 (order 27) and 2/3 (order 9) of
    # Gamma0(27), and an operand's monomials reused across products
    f = EisensteinElement(4, 27, {1: 2, 3: -1, 27: 5})
    g = EisensteinElement(6, 27, {1: 1, 9: Fraction(-7, 3), 27: 4})
    for cusp, order in ((Cusp(1, 1, 27), 27), (Cusp(2, 3, 27), 9)):
        x = expansion_at_cusp(f, cusp, 8).series
        y = expansion_at_cusp(g, cusp, 10).series
        assert (x.cyc_order, y.cyc_order, (x * y).cyc_order) == (order, order, order)
        for new, ref in stored_monomial_products(x, y):
            assert_same_representatives(new, ref)
