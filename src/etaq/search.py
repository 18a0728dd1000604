"""Classification searches over prime-power levels.

The enumeration of all eta quotients lying in the weight-k Eisenstein
span works backwards from cusp orders.  An eta quotient has no zeros in
the upper half plane, so its k mu/12 zeros (mu = gamma0_index(p^m)) sit
at the cusps, where a modular one has whole orders.  In 1/24 units the
orders of an exponent vector r at the cusp denominators p^i are B r,
column j of the integer matrix B being EtaQuotient.order_map24 of
eta(p^j z).  With a lower-triangular (Hermite normal form) basis H = B U,
U unimodular, the search walks whole orders v_i one at a time, each
inside its per-cusp cap and what is left of the weighted total k mu/12:
24 v_i = (H y)_i needs only y_0..y_i, and v_i is kept when it fixes an
integer y_i.  Each point gives the exponent vector U y of weight k.  Its
orders at the cusps N and 1 are sum t r_t / 24 and sum (N/t) r_t / 24,
so their being whole is the pair of mod-24 modularity congruences, and
only the character is left to check before certifying against an
Eisenstein combination.  Under the order bound's caps (2 at the
denominator-2 cusp of level 4, else 1) the walk is complete for nonzero
r_1 and r_{p^m}; with every cap raised to the total, every quotient.

Also here: antiderivatives pairing weight-2 results with the weight-0
quotients whose derivative they are, and the bounded search for level-4
quotients whose second derivative is again an eta quotient.  Its targets
come from the uncapped walk and its ratio from the E_2 convolution
table, 12 times the ratio being an integer quadratic form in (r1, r2,
r4).  It tests proportionality in integers: with r4 = -2 - r1 - r2 the
2x2 minors against a target are quadratics in r2 for each r1, so the
candidates are their exact integer roots, not every point of the square
|r1|, |r2| <= bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, lcm
from operator import mul

from .arith import denominator_multiplicity, gamma0_index, per_cusp_cap, prime_power, xgcd
from .eisenstein import (
    CONVOLUTIONS,
    EisensteinElement,
    MembershipTag,
    match_certification_rows,
    match_eta,
)
from .eta import EtaQuotient

__all__ = [
    "SearchPair",
    "SearchResult",
    "enumerate_eta_in_e",
    "ClassificationReport",
    "verify_classification_lists",
    "DualPair",
    "antiderivative",
    "dual_pairs_prime_power",
    "second_derivative_ratio",
    "SecondDerivSolution",
    "classify_second_derivatives_level4",
]


@dataclass(frozen=True)
class SearchPair:
    eta: EtaQuotient
    element: EisensteinElement
    certified_through: int
    eta_primitive: bool

    def to_json(self) -> dict:
        return {
            "eta": self.eta.to_json(),
            "eisenstein": self.element.to_json(),
            "bound": self.certified_through,
            "eta_primitive": self.eta_primitive,
        }


@dataclass(frozen=True)
class SearchResult:
    k: int
    p: int
    m: int
    pairs: tuple[SearchPair, ...]
    candidates_scanned: int

    @property
    def level(self) -> int:
        return self.p**self.m

    def exponent_maps(self) -> list[dict[int, int]]:
        return [sp.eta.exponents for sp in self.pairs]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "p": self.p,
            "m": self.m,
            "pairs": [sp.to_json() for sp in self.pairs],
        }


def _lower_hnf(b: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with H = b U in lower-triangular Hermite normal form and U
    unimodular, for a nonsingular square integer matrix b: the columns
    of H are a triangular basis of the lattice the columns of b span,
    with H[i][i] > 0 and 0 <= H[i][j] < H[i][i] for j < i."""
    size = len(b)
    h = [list(row) for row in b]
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        for col in range(i + 1, size):
            if h[i][col]:
                # unimodular column step (det x*a + y*c = 1) clearing h[i][col]
                g, x, y = xgcd(h[i][i], h[i][col])
                a, c = h[i][i] // g, h[i][col] // g
                for row in h + u:
                    row[i], row[col] = x * row[i] + y * row[col], a * row[col] - c * row[i]
        if h[i][i] < 0:
            for row in h + u:
                row[i] = -row[i]
        for j in range(i):
            q = h[i][j] // h[i][i]
            for row in h + u:
                row[j] -= q * row[i]
    return h, u


def _order_matrix24(p: int, m: int) -> list[list[int]]:
    """Column j is EtaQuotient.order_map24 of eta(p^j z) on Gamma0(p^m)."""
    cols = [EtaQuotient(p**m, {p**j: 1}).order_map24() for j in range(m + 1)]
    return [[col[p**i] for col in cols] for i in range(m + 1)]


def _integral_exponents(k: int, p: int, m: int, caps: list[int]):
    """Yield, in lexicographic order of their cusp-order vectors, the
    integer exponent vectors (r_{p^j})_j whose orders are whole numbers
    v_i <= caps[i] at the denominators p^i that sum, with multiplicity,
    to k mu/12."""
    n = p**m
    mult = [denominator_multiplicity(n, p**i) for i in range(m + 1)]
    target, rem = divmod(k * gamma0_index(n), 12)
    if rem:
        return
    suffix = [0] * (m + 2)
    for i in range(m, -1, -1):
        suffix[i] = suffix[i + 1] + mult[i] * caps[i]

    h, u = _lower_hnf(_order_matrix24(p, m))
    y = [0] * (m + 1)

    def walk(i: int, remaining: int):
        if i == m + 1:
            # the bounds at the last coordinate leave remaining == 0
            yield [sum(uj * yl for uj, yl in zip(row, y)) for row in u]
            return
        lo = max(0, -(-(remaining - suffix[i + 1]) // mult[i]))
        hi = min(caps[i], remaining // mult[i])
        base = sum(h[i][j] * y[j] for j in range(i))
        for v in range(lo, hi + 1):
            # order i is 24 v = base + h[i][i] y_i in 1/24 units
            y[i], off = divmod(24 * v - base, h[i][i])
            if not off:
                yield from walk(i + 1, remaining - mult[i] * v)

    yield from walk(0, target)


def _walk_matches(k: int, p: int, m: int, caps: list[int]):
    """(quotient, its certified Eisenstein match or None) for each point
    of _integral_exponents: whole orders leave only the character, so
    match_eta builds the one ModularityReport of each point that has it."""
    for r in _integral_exponents(k, p, m, caps):
        quotient = EtaQuotient(p**m, {p**j: rj for j, rj in enumerate(r)})
        yield quotient, match_eta(quotient) if quotient.trivial_character() else None


def enumerate_eta_in_e(k: int, p: int, m: int) -> SearchResult:
    """All eta quotients equal to an Eisenstein combination of weight k
    and level p^m whose combination has nonzero r_1 and r_{p^m}.

    An empty result is a valid outcome (and the expected one for all but
    six (k, p^m) cells).  candidates_scanned counts the points walked:
    exponent vectors whose whole, capped cusp orders total k mu/12.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be even >= 2")
    if m < 0 or p < 2 or prime_power(p) != (p, 1):
        raise ValueError(f"level p^m needs a prime p and m >= 0, got p = {p}, m = {m}")
    n = p**m
    pairs: list[SearchPair] = []
    scanned = 0
    caps = [per_cusp_cap(n, p**i) for i in range(m + 1)]
    for quotient, element in _walk_matches(k, p, m, caps):
        scanned += 1
        if element is not None and element.classify() is MembershipTag.IN_P:
            rows = match_certification_rows(k, n)
            pairs.append(SearchPair(quotient, element, rows, quotient.is_primitive()))
    pairs.sort(key=lambda sp: sp.eta.key())
    return SearchResult(k, p, m, tuple(pairs), scanned)


# ---------------------------------------------------------------------------
# published classification lists used as comparison data
# ---------------------------------------------------------------------------

# The twelve weight-2 quotients as printed (first entry verbatim, which
# simplifies to eta(1)^4 and is expected NOT to be reproduced: the
# certified search finds eta(1)^8 * eta(2)^-4 in its place).
REFERENCE_WEIGHT2: list[dict[int, int]] = [
    {1: 4},
    {2: -4, 4: 8},
    {1: -8, 2: 20, 4: -8},
    {1: 4, 2: -6, 4: 10, 8: -4},
    {1: -4, 2: 10, 4: -6, 8: 4},
    {1: -4, 2: 6, 4: 6, 8: -4},
    {1: 4, 2: -2, 4: -2, 8: 4},
    {1: -3, 3: 10, 9: -3},
    {1: 2, 2: -5, 4: 8, 8: 1, 16: -2},
    {1: -2, 2: 1, 4: 8, 8: -5, 16: 2},
    {1: -2, 2: 1, 4: 6, 8: 1, 16: -2},
    {1: 2, 2: -5, 4: 10, 8: -5, 16: 2},
]

REFERENCE_WEIGHT4: list[dict[int, int]] = [
    {1: -8, 2: 16},
    {1: -16, 2: 40, 4: -16},
    {1: 8, 2: -8, 4: 8},
    {1: 16, 2: -8},
]

# The twelve weight-0 quotients whose derivatives are eta quotients.
REFERENCE_ANTIDERIVATIVES: list[dict[int, int]] = [
    {1: 8, 2: -24, 4: 16},
    {1: -2, 2: 3, 4: -1},
    {1: -8, 4: 8},
    {1: 4, 2: -10, 4: 2, 8: 4},
    {1: -2, 2: -1, 4: 5, 8: -2},
    {1: -4, 2: 2, 4: -2, 8: 4},
    {1: -2, 2: 7, 4: -7, 8: 2},
    {1: -3, 9: 3},
    {1: 2, 2: -5, 4: 2, 8: -1, 16: 2},
    {1: -2, 2: 1, 4: -2, 8: 5, 16: -2},
    {1: -2, 2: 1, 8: -1, 16: 2},
    {1: -2, 2: 5, 8: -5, 16: 2},
]

WEIGHT2_CELLS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 4)]
WEIGHT4_CELLS = [(4, 2, 1), (4, 2, 2)]
# (k, p, m) cells whose searches must come back empty.
EXCLUDED_CELLS = [
    (2, 2, 0),
    (4, 2, 0),
    (6, 2, 0),
    (8, 2, 0),
    (10, 2, 0),
    (2, 2, 1),
    (6, 2, 1),
    (6, 2, 2),
    (2, 3, 1),
    (4, 3, 1),
    (2, 5, 1),
    (2, 5, 2),
    (2, 7, 1),
]


@dataclass(frozen=True)
class ClassificationReport:
    weight2: dict[int, SearchResult]  # level -> result
    weight4: dict[int, SearchResult]
    excluded: dict[tuple[int, int], int]  # (k, level) -> number found
    weight2_matched: list[dict[int, int]]
    weight2_missing: list[dict[int, int]]  # printed but not reproduced
    weight2_extra: list[SearchPair]  # certified but not printed
    weight4_exact: bool

    @property
    def weight2_counts(self) -> dict[int, int]:
        return {n: len(r.pairs) for n, r in sorted(self.weight2.items())}

    @property
    def ok(self) -> bool:
        counts_ok = self.weight2_counts == {4: 3, 8: 4, 9: 1, 16: 4}
        no_excluded = all(v == 0 for v in self.excluded.values())
        return counts_ok and self.weight4_exact and no_excluded

    def to_json(self) -> dict:
        return {
            "weight2": {str(n): r.to_json() for n, r in sorted(self.weight2.items())},
            "weight4": {str(n): r.to_json() for n, r in sorted(self.weight4.items())},
            "excluded": {f"k={k},level={n}": v for (k, n), v in sorted(self.excluded.items())},
            "weight2_counts": {str(n): c for n, c in self.weight2_counts.items()},
            "weight2_matched": [_map_json(e) for e in self.weight2_matched],
            "weight2_missing": [_map_json(e) for e in self.weight2_missing],
            "weight2_extra": [sp.to_json() for sp in self.weight2_extra],
            "weight4_exact": self.weight4_exact,
            "ok": self.ok,
        }


def _map_json(exps: dict[int, int]) -> dict[str, int]:
    return {str(t): r for t, r in sorted(exps.items())}


def _freeze(exps: dict[int, int]) -> tuple:
    return tuple(sorted(exps.items()))


def verify_classification_lists() -> ClassificationReport:
    """Run the six populated searches and the thirteen empty ones, and
    compare against the published lists.  Discrepancies are surfaced,
    not suppressed: each printed entry that the certified search cannot
    reproduce is reported alongside the certified corrected forms."""
    weight2 = {p**m: enumerate_eta_in_e(k, p, m) for k, p, m in WEIGHT2_CELLS}
    weight4 = {p**m: enumerate_eta_in_e(k, p, m) for k, p, m in WEIGHT4_CELLS}
    # several excluded cells share a level, so they are keyed by (k, level)
    excluded = {(k, p**m): len(enumerate_eta_in_e(k, p, m).pairs) for k, p, m in EXCLUDED_CELLS}

    found = {_freeze(e) for res in weight2.values() for e in res.exponent_maps()}
    printed = {_freeze(e): e for e in REFERENCE_WEIGHT2}
    matched = [e for key, e in printed.items() if key in found]
    missing = [e for key, e in printed.items() if key not in found]
    extra = [
        sp
        for res in weight2.values()
        for sp in res.pairs
        if _freeze(sp.eta.exponents) not in printed
    ]
    weight4_exact = {_freeze(e) for e in REFERENCE_WEIGHT4} == {
        _freeze(e) for res in weight4.values() for e in res.exponent_maps()
    }
    return ClassificationReport(weight2, weight4, excluded, matched, missing, extra, weight4_exact)


# ---------------------------------------------------------------------------
# antiderivatives / dual pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualPair:
    """Weight (0, 2) pair: D(f) = scalar * g exactly, with g = f * source."""

    f: EtaQuotient
    g: EtaQuotient
    scalar: Fraction
    source: EtaQuotient

    def to_json(self) -> dict:
        return {
            "f": self.f.to_json(),
            "g": self.g.to_json(),
            "scalar": str(self.scalar),
            "source": self.source.to_json(),
        }


def antiderivative(g: EtaQuotient, certify_rel: int = 480) -> DualPair:
    """The weight-0 eta quotient f with D(f) a constant multiple of g
    times f (equivalently: D(f)/f equals lambda * g as a series).

    By the logarithmic-derivative identity D(eta(tz))/eta(tz) =
    -t E_2(tz) (EtaQuotient.log_derivative), D(f)/f = lambda * g for
    g = sum_t rho_t E_2(tz) exactly when r_t = -lambda * rho_t / t, so
    f is read off the certified match rho of g, with lambda the least
    positive integer that makes every r_t integral; the weight-2 balance
    sum rho_t/t = 0 makes f of weight 0.  The identity D(f) =
    lambda * (f*g) is certified by exact series arithmetic through
    certify_rel 1/24 q-units past the leading exponent, so
    ceil(certify_rel/24) q-steps: 20 by default.
    """
    element = match_eta(g)
    if element is None:
        raise ValueError("quotient is not a weight-2 Eisenstein combination")
    if element.k != 2:
        raise ValueError(f"antiderivatives are defined for weight 2, got {element.k}")
    n = element.level
    ratios = {t: rho / t for t, rho in element.coeffs.items()}
    lam = lcm(*(v.denominator for v in ratios.values()))
    exps = {t: int(-lam * v) for t, v in ratios.items()}
    f = EtaQuotient(n, exps)
    g_der = f * g

    steps = -(-certify_rel // 24)
    # f*g starts g's leading exponent after f, so f runs that much longer
    lhs = f.expansion(steps + g.offset() // 24).ramanujan_d()
    rhs = g_der.expansion(steps) * Fraction(lam)
    if not (lhs - rhs).is_zero_to_prec():
        raise AssertionError(f"antiderivative certification failed for g = {g.render()}")
    return DualPair(f, g_der, Fraction(lam), g)


def dual_pairs_prime_power(certify_rel: int = 480) -> list[DualPair]:
    """Antiderivatives of every weight-2 search result (expected: 12),
    each certified through certify_rel 1/24 q-units past the leading
    exponent, so ceil(certify_rel/24) q-steps: 20 by default."""
    out = []
    for k, p, m in WEIGHT2_CELLS:
        for sp in enumerate_eta_in_e(k, p, m).pairs:
            out.append(antiderivative(sp.eta, certify_rel))
    return sorted(out, key=lambda dp: dp.f.key())


# ---------------------------------------------------------------------------
# second derivatives at level 4
# ---------------------------------------------------------------------------


@cache
def _ratio12_form() -> tuple[tuple[int, ...], ...]:
    """12 s_d, d = 1, 2, 4, over r1^2, r2^2, r4^2, r1 r2, r1 r4, r2 r4.
    D^2(f)/f = h^2 + D(h) for h = D(f)/f = -sum t r_t E_2(tz); the row
    E_2(az) E_2(bz) = sum c_d E_4(dz) + sum e_d D(E_2(dz)) of CONVOLUTIONS
    enters h^2 times (2 - [a = b]) a b r_a r_b, and its D(E_2(dz)) terms
    must cancel D(h) = (d/2) r_d (r1 + r2 + r4) (on r1 + r2 + r4 = -2)."""
    rows = {(a, b): (name, c, e) for name, (a, b, c, e) in CONVOLUTIONS.items()}
    form = []
    for d in (1, 2, 4):
        form.append([])
        for a, b in ((1, 1), (2, 2), (4, 4), (1, 2), (1, 4), (2, 4)):
            name, c, e = rows[a, b]
            w = (2 - (a == b)) * a * b
            coeff = 12 * w * c.get(d, Fraction(0))
            if w * e.get(d, 0) + Fraction(d, 2) * (d in (a, b)) or coeff.denominator != 1:
                raise AssertionError(f"{name}: no integer form cancelling D(h) at d = {d}")
            form[-1].append(int(coeff))
    return tuple(map(tuple, form))


def _ratio12(r1: int, r2: int, r4: int) -> tuple[int, ...]:
    """12 * second_derivative_ratio((r1, r2, r4)), in integers."""
    m = (r1 * r1, r2 * r2, r4 * r4, r1 * r2, r1 * r4, r2 * r4)
    return tuple(sum(map(mul, row, m)) for row in _ratio12_form())


def second_derivative_ratio(r: tuple[int, int, int]) -> tuple[Fraction, Fraction, Fraction]:
    """(s_1, s_2, s_4) with D^2(f)/f = sum s_d E_4(dz) for f = eta(z)^r1
    eta(2z)^r2 eta(4z)^r4, r1+r2+r4 = -2: the form of _ratio12_form."""
    if sum(r) != -2:
        raise ValueError("exponents must satisfy r1 + r2 + r4 = -2")
    return tuple(Fraction(x, 12) for x in _ratio12(*r))


@dataclass(frozen=True)
class SecondDerivSolution:
    r: tuple[int, int, int]
    s: tuple[Fraction, Fraction, Fraction]
    f: EtaQuotient
    target: EtaQuotient
    scalar: Fraction  # D^2(f) = scalar * expansion(target) * expansion(f)
    primitive: bool

    def to_json(self) -> dict:
        return {
            "r": list(self.r),
            "s": [str(x) for x in self.s],
            "f": self.f.to_json(),
            "target": self.target.to_json(),
            "scalar": str(self.scalar),
            "primitive": self.primitive,
        }


@cache
def level4_targets() -> tuple[tuple[EtaQuotient, tuple[Fraction, Fraction, Fraction]], ...]:
    """The six weight-4 eta quotients in the E_4 span at level 4, new or
    old, with their E_4 vectors over divisors 1, 2, 4: every match of the
    walk at (4, 2, 2) with each cap raised to the total k mu/12 = 2."""
    return tuple(
        (q, tuple(element.coeffs.get(d, Fraction(0)) for d in (1, 2, 4)))
        for q, element in _walk_matches(4, 2, 2, [4 * gamma0_index(4) // 12] * 3)
        if element is not None
    )


def _certify_second_derivative(
    r: tuple[int, int, int],
    s: tuple[Fraction, Fraction, Fraction],
    target: EtaQuotient,
    scalar: Fraction,
    steps: int,
) -> SecondDerivSolution:
    f = EtaQuotient(4, {1: r[0], 2: r[1], 4: r[2]})
    # steps past q^0 when f starts below it, else past f's leading exponent
    ef = f.expansion(steps - min(f.offset(), 0) // 24)
    lhs = ef.ramanujan_d().ramanujan_d()
    combo = EisensteinElement(4, 4, {1: s[0], 2: s[1], 4: s[2]})
    # the combination as deep as ef, so the ratio check keeps ef's window
    rhs = ef * combo.expansion(ef.prec)
    if not (lhs - rhs).is_zero_to_prec():
        raise AssertionError(f"second-derivative ratio certification failed for r = {r}")
    rhs2 = ef * target.expansion(steps) * scalar
    if not (lhs - rhs2).is_zero_to_prec():
        raise AssertionError(
            f"second-derivative target certification failed for r = {r}, "
            f"target {target.render()}"
        )
    return SecondDerivSolution(r, s, f, target, scalar, f.is_primitive())


def _integer_roots(a: int, b: int, c: int, lo: int, hi: int) -> list[int] | None:
    """The integer roots x, lo <= x <= hi, of a x^2 + b x + c in increasing
    order, or None when the polynomial is identically zero."""
    if not a:
        if not b:
            return None if not c else []
        x, rem = divmod(-c, b)
        return [x] if not rem and lo <= x <= hi else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    w = isqrt(disc)
    if w * w != disc:
        return []
    roots = set()
    for num in (-b - w, -b + w):
        x, rem = divmod(num, 2 * a)
        if not rem and lo <= x <= hi:
            roots.add(x)
    return sorted(roots)


def _ratio12_in_r2() -> list[tuple[int, int, int, int, int, int]]:
    """For each component m of s(r1, r2) = _ratio12(r1, r2, -2 - r1 - r2),
    (a, b0, b1, c0, c1, c2) with m = a r2^2 + (b0 + b1 r1) r2 + c0 + c1 r1
    + c2 r1^2, read off its row (q11, q22, q44, q12, q14, q24) of
    _ratio12_form by substituting r4 = -2 - r1 - r2."""
    return [
        (q22 + q44 - q24, 4 * q44 - 2 * q24, q12 + 2 * q44 - q14 - q24,
         4 * q44, 4 * q44 - 2 * q14, q11 + q44 - q14)
        for q11, q22, q44, q12, q14, q24 in _ratio12_form()
    ]


def _value(poly: tuple[int, ...], r1: int, r2: int) -> int:
    """The quadratic (a, b0, b1, c0, c1, c2) of _ratio12_in_r2 at (r1, r2)."""
    a, b0, b1, c0, c1, c2 = poly
    return (a * r2 + b0 + b1 * r1) * r2 + c0 + (c1 + c2 * r1) * r1


def _second_derivative_hits(
    bound: int, directions: list[tuple[int, int, int]]
) -> list[tuple[tuple[int, int, int], int]]:
    """(r, index) for every r = (r1, r2, -2 - r1 - r2), |r_i| <= bound,
    whose s = _ratio12(*r) is nonzero and parallel to directions[index],
    with the lowest such index, in increasing order of r.

    With i the first nonzero coordinate of a direction t, s is a nonzero
    multiple of t exactly when s_i != 0 and the minors t_i s_j - t_j s_i
    (j != i) vanish.  These are integer quadratics in (r1, r2), found once
    per direction, so for each r1 the first minor not identically zero in
    r2 has at most two integer roots, and only those are tested.  A row
    where both minors vanish identically is walked in full.
    """
    coeffs = _ratio12_in_r2()
    minors = []
    for t in directions:
        i = next(j for j, tj in enumerate(t) if tj)
        pair = [tuple(t[i] * x - t[j] * y for x, y in zip(coeffs[j], coeffs[i]))
                for j in range(3) if j != i]
        minors.append((coeffs[i], pair))
    hits = []
    for r1 in range(-bound, bound + 1):
        lo, hi = max(-bound, -2 - r1 - bound), min(bound, -2 - r1 + bound)
        found: dict[int, int] = {}
        for index, (lead, pair) in enumerate(minors):
            for a, b0, b1, c0, c1, c2 in pair:
                roots = _integer_roots(a, b0 + b1 * r1, c0 + (c1 + c2 * r1) * r1, lo, hi)
                if roots is not None:
                    break
            else:
                roots = range(lo, hi + 1)
            for r2 in roots:
                if r2 not in found and _value(lead, r1, r2) and not (
                    _value(pair[0], r1, r2) or _value(pair[1], r1, r2)
                ):
                    found[r2] = index
        hits += [((r1, r2, -2 - r1 - r2), found[r2]) for r2 in sorted(found)]
    return hits


def classify_second_derivatives_level4(
    bound: int = 60, certify_rel: int = 240
) -> list[SecondDerivSolution]:
    """All integer exponent triples (r1, r2, r4), |r_i| <= bound, with
    r1+r2+r4 = -2 whose second-derivative ratio is a nonzero rational
    multiple of a weight-4 eta quotient in the E_4 span at level 4
    (level4_targets).

    The -2 constraint is forced: an eta quotient whose D^2-to-f ratio
    is again an eta quotient must have weight -1 (and the ratio weight
    4).  The candidates are the integer roots of the 2x2 minors of the
    ratio against each target direction, quadratics in r2 for each r1
    (_second_derivative_hits): O(bound * targets) root solves, not a
    scan of the (2 bound + 1)^2 square.  Each hit is certified by exact
    series arithmetic through certify_rel 1/24 q-units past the leading
    exponent, so ceil(certify_rel/24) q-steps: 10 by default.  Output is
    deterministic: sorted by exponent triple.
    """
    steps = -(-certify_rel // 24)
    targets = level4_targets()
    directions = []
    for _, ts in targets:
        scale = lcm(*(x.denominator for x in ts))
        directions.append(tuple(int(x * scale) for x in ts))
    solutions: list[SecondDerivSolution] = []
    for r, index in _second_derivative_hits(bound, directions):
        q, ts = targets[index]
        s = second_derivative_ratio(r)
        scalar = next(sv / tv for sv, tv in zip(s, ts) if tv)
        solutions.append(_certify_second_derivative(r, s, q, scalar, steps))
    return solutions
