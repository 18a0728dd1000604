"""Classical Eisenstein series and their rational linear combinations.

E_k(z) = -B_k/(2k) + sum sigma_(k-1)(n) q^n for even k >= 2.  The
weight-k space on Gamma0(N) used here is spanned by E_k(dz) for d | N;
for k = 2, where E_2 alone is only quasimodular, elements are required
to satisfy sum_t r_t/t = 0, which is exactly the condition killing the
non-holomorphic term of the completed E_2 under the slash action.  The
constraint is enforced at construction so every element handed to the
cusp-expansion machinery transforms like a true modular form.

One builder, ``_numerators``, turns integer weights w_t into the integer
numerators of sum_t w_t E_k(tz); expansions, matching and the identity
suite all read coefficients from it, and ``_constant`` is the one place
-B_k/2k is computed.

Also here: the Sturm equality bound, certified matching of eta
quotients against Eisenstein combinations, and a suite of classical
product-to-sum and convolution identities verified exactly.  Matching
reads the coefficients r_t off the rows q^t, t | N, which form a
unitriangular system, then checks every row through the fixed depth
2*sturm_bound + 2 (and the weight-2 balance); every comparison is
between integers.  The identities are data: four tables (E_2
convolutions, eta quotients equal to Eisenstein combinations,
eta-quotient derivatives, theta-power remainders): the first three
are read by one loop of equalities, the last by one loop of constant
terms.
"""

from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import lcm
from operator import index

from .arith import bernoulli, divisors, gamma0_index, prime_power, sigma_table
from .eta import EtaQuotient
from .series import QSeries

__all__ = [
    "eisenstein_series",
    "EisensteinElement",
    "MembershipTag",
    "sturm_bound",
    "match_eta",
    "IdentityCheck",
    "verify_identities",
    "random_p_element",
]


def eisenstein_series(k: int, prec: int) -> QSeries:
    """E_k through prec q-steps from q^0: -B_k/2k + sum sigma_{k-1}(n) q^n."""
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be even >= 2, got {k}")
    return _combination(k, {1: 1}, prec)


@cache
def _constant(k: int) -> Fraction:
    """The constant term -B_k/2k of E_k, built once per weight."""
    return Fraction(-bernoulli(k), 2 * k)


def _numerators(k: int, weights: dict[int, int], prec: int) -> list[int]:
    """den(c) * sum_t w_t [q^j] E_k(tz) for j < prec, with c = -B_k/2k.

    That is sum_t w_t num(c) at j = 0 and den(c) * sum_{t | j} w_t
    sigma_{k-1}(j/t) at j >= 1, read from one sigma table.
    """
    c = _constant(k)
    table = sigma_table(k - 1, prec - 1)
    vec = [0] * prec
    for t, w in weights.items():
        vec[0] += w * c.numerator
        w *= c.denominator
        vec[t::t] = [v + w * s for v, s in zip(vec[t::t], table[1 : (prec - 1) // t + 1])]
    return vec


def _combination(k: int, coeffs: dict[int, Fraction | int], prec: int) -> QSeries:
    """sum_t coeffs[t] E_k(tz) below q^prec, over L * den(-B_k/2k) with
    L the lcm of the coefficient denominators."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    lden = lcm(*(r.denominator for r in coeffs.values()))
    vec = _numerators(k, {t: int(r * lden) for t, r in coeffs.items()}, prec)
    return QSeries(0, vec, lden * _constant(k).denominator)


class MembershipTag(Enum):
    IN_P = "in_P"
    IN_O_LOWER_LEVEL = "in_O_lower_level"
    IN_O_RESCALED = "in_O_rescaled"
    ZERO = "zero"


class EisensteinElement:
    """f = sum_{t | level} coeffs[t] * E_k(t z), rational coefficients."""

    __slots__ = ("k", "level", "coeffs")

    def __init__(self, k: int, level: int, coeffs: dict[int, Fraction | int]):
        if k < 2 or k % 2:
            raise ValueError(f"weight must be even >= 2, got {k}")
        if level < 1:
            raise ValueError("level must be >= 1")
        clean: dict[int, Fraction] = {}
        for t, r in coeffs.items():
            if not isinstance(r, (int, Fraction)):
                raise TypeError(f"{r!r}*E{k}({t!r}): the coefficient must be an int or Fraction")
            try:
                t = index(t)
            except TypeError:
                raise TypeError(f"{r!r}*E{k}({t!r}): t must be an integer") from None
            if t < 1:
                raise ValueError(f"the t in E{k}(t) must be at least 1, got {t}")
            if level % t:
                raise ValueError(f"divisor {t} does not divide level {level}")
            r = Fraction(r)
            if r:
                clean[t] = r
        if k == 2:
            balance = sum(r / t for t, r in clean.items())
            if balance != 0:
                raise ValueError(
                    f"weight-2 combination needs sum r_t/t = 0, got {balance}"
                )
        self.k = k
        self.level = level
        self.coeffs = dict(sorted(clean.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, EisensteinElement):
            return NotImplemented
        return (self.k, self.level, self.coeffs) == (other.k, other.level, other.coeffs)

    def __hash__(self):
        return hash((self.k, self.level, tuple(self.coeffs.items())))

    def expansion(self, prec: int) -> QSeries:
        """q-expansion at infinity through prec q-steps from q^0."""
        return _combination(self.k, self.coeffs, prec)

    def classify(self) -> MembershipTag:
        """Membership for prime-power level: primitive-new vs inherited."""
        pp = prime_power(self.level)
        if pp is None:
            raise ValueError(f"classification needs a prime-power level, got {self.level}")
        if not self.coeffs:
            return MembershipTag.ZERO
        if self.coeffs.get(1, Fraction(0)) == 0:
            return MembershipTag.IN_O_RESCALED
        if self.coeffs.get(self.level, Fraction(0)) == 0:
            return MembershipTag.IN_O_LOWER_LEVEL
        return MembershipTag.IN_P

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for t, r in self.coeffs.items():
            body = f"E{self.k}({t})" if abs(r) == 1 else f"{abs(r)}*E{self.k}({t})"
            if not parts:
                parts.append(body if r > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if r > 0 else f"-{body}")
        return "".join(parts)

    def to_json(self) -> dict:
        return {
            "weight": self.k,
            "level": self.level,
            "coeffs": {str(t): str(r) for t, r in self.coeffs.items()},
        }

    def __repr__(self):
        return f"EisensteinElement(k={self.k}, level={self.level}, {self.render()})"


_ELEMENT_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?E(\d+)\((\d+)\)$")


def parse_element(text: str, level: int | None = None) -> EisensteinElement:
    """Parse 'c*Ek(t)+-...' with rational c, e.g. '8*E2(1)-32*E2(4)'."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty Eisenstein combination")
    # split before every +/-, so each token is one term with its sign
    tokens = re.split(r"(?=[+-])", cleaned)
    if not tokens[0]:  # the text starts with a sign
        del tokens[0]
    k: int | None = None
    coeffs: dict[int, Fraction] = {}
    pos = 0
    for token in tokens:
        if token in ("+", "-"):
            raise ValueError(f"sign {token!r} begins no term at {cleaned[pos:]!r}")
        pos += len(token)
        sign = Fraction(1)
        body = token
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        m = _ELEMENT_TERM.match(body)
        if not m:
            raise ValueError(f"bad Eisenstein term {token!r}")
        try:
            c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient of {token!r}") from None
        kk = int(m.group(2))
        t = int(m.group(3))
        if t < 1:
            raise ValueError(f"the t in Ek(t) must be at least 1 in {token!r}")
        if k is None:
            k = kk
        elif k != kk:
            raise ValueError(f"mixed weights in combination: E{k} vs E{kk} in {token!r}")
        coeffs[t] = coeffs.get(t, Fraction(0)) + sign * c
    assert k is not None
    if level is None:
        level = lcm(*coeffs)
    return EisensteinElement(k, level, coeffs)


def sturm_bound(k: int, n: int) -> int:
    """floor(k * mu / 12) with mu = [SL2(Z) : Gamma0(n)]; coefficient
    agreement of two weight-k forms on Gamma0(n) through this index
    proves equality."""
    return (k * gamma0_index(n)) // 12


def match_certification_rows(k: int, n: int) -> int:
    """Last q-exponent match_eta compares: twice the Sturm bound plus 2,
    and at least the rows q^t for every t | n."""
    return max(2 * sturm_bound(k, n) + 2, n + 1)


def match_eta(g: EtaQuotient) -> EisensteinElement | None:
    """Certified Eisenstein combination equal to g, or None.

    The unknowns are the r_t of sum_{t | level} r_t E_k(tz).  The rows
    j = t for t | level, which match_certification_rows always includes,
    determine them: column t' meets row t only when t' | t, with entry
    sigma_{k-1}(t/t'), and sigma_{k-1}(1) = 1, so forward substitution on
    the numerators of g's expansion gives every r_t as an integer over
    its denominator.  Every row 0..rows (and the balance sum r_t/t = 0
    when k = 2) is then checked by integer comparisons; any failure
    returns None.  Both sides are modular of weight k on Gamma0(level),
    so agreement through twice the Sturm bound proves equality.
    Preconditions: g passes the modularity criteria, which make its
    weight an even integer, with weight >= 2.
    """
    report = g.is_modular_on_gamma0()
    if not report.is_modular:
        raise ValueError(f"quotient fails modularity criteria: {report.failed()}")
    k = int(g.weight())
    if k < 2:
        raise ValueError(f"matching needs even integer weight >= 2, got {k}")
    n = g.level
    rows = match_certification_rows(k, n)
    # b[j] = exp.den * [q^j] g for j = 0..rows; the modularity criteria
    # make g's leading exponent a whole number (sum t*r_t = 0 mod 24), and
    # holomorphy at infinity makes it nonnegative
    lead = g.offset() // 24
    exp = g.expansion(rows + 1 - lead)
    b = [0] * lead + list(exp.coeffs)
    sig = sigma_table(k - 1, n)
    x: dict[int, int] = {}  # exp.den * r_t
    for t in divisors(n):
        x[t] = b[t] - sum(sig[t // s] * xs for s, xs in x.items() if t % s == 0)
    cden = _constant(k).denominator
    if _numerators(k, x, rows + 1) != [cden * bj for bj in b]:
        return None
    if k == 2 and sum(xt * (n // t) for t, xt in x.items()):
        return None
    return EisensteinElement(k, n, {t: Fraction(xt, exp.den) for t, xt in x.items()})


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    weight: int
    level: int
    bound: int
    status: str  # "ok" | "mismatch" | "remainder"
    first_mismatch: str | None = None
    note: str | None = None

    def to_json(self) -> dict:
        # field order is the text rendering's line order
        return {key: v for key, v in asdict(self).items() if v is not None}


# E_2(az) E_2(bz) = sum_d c_d E_4(dz) + sum_d e_d D(E_2(dz)), at level b:
# Besge and its rescalings, and Huard-Ou-Spearman-Williams.
# name -> (a, b, {d: c_d}, {d: e_d})
CONVOLUTIONS = {
    "besge-e2-square": (1, 1, {1: Fraction(5, 12)}, {1: Fraction(-1, 2)}),
    "besge-e2-square-z2": (2, 2, {2: Fraction(5, 12)}, {2: Fraction(-1, 4)}),
    "besge-e2-square-z4": (4, 4, {4: Fraction(5, 12)}, {4: Fraction(-1, 8)}),
    "huard-williams-e2-e2z2": (
        1, 2, {1: Fraction(1, 12), 2: Fraction(1, 3)}, {1: Fraction(-1, 8), 2: Fraction(-1, 4)}
    ),
    "huard-williams-e2-e2z2-z2": (
        2, 4, {2: Fraction(1, 12), 4: Fraction(1, 3)}, {2: Fraction(-1, 16), 4: Fraction(-1, 8)}
    ),
    "huard-williams-e2-e2z4": (
        1, 4, {1: Fraction(1, 48), 2: Fraction(1, 16), 4: Fraction(1, 3)},
        {1: Fraction(-1, 16), 4: Fraction(-1, 4)},
    ),
}

# prod_t eta(tz)^r_t = sum_t coeffs[t] E_k(tz): name -> (level, r, coeffs)
ETA_EISENSTEIN = {
    "jacobi-four-squares": (4, {1: -8, 2: 20, 4: -8}, {1: 8, 4: -32}),
    "williams-table-no24": (
        12, {1: -2, 2: 2, 3: -2, 4: 4, 6: 6, 12: -4}, {1: 2, 2: -3, 4: 4, 6: 9, 12: -36}
    ),
}

# D(f) = c * g for eta quotients f and g: name -> (level, f, g, c)
ETA_DERIVATIVES = {
    "eta-derivative-level4": (4, {1: -8, 4: 8}, {1: -16, 2: 20}, 1),
    "eta-derivative-level12": (
        12, {1: -4, 2: 3, 4: -2, 6: -3, 12: 6}, {1: -6, 2: 5, 3: -2, 4: 2, 6: 3, 12: 2}, 2
    ),
}

# theta(z)^(2k) against the weight-2k combination
# -2k/B_2k * (s E_2k(z) - (s+1) E_2k(2z) + 2^2k E_2k(4z)) / (2^2k - 1),
# s = (-1)^k, with theta(z) = eta(2z)^5 / (eta(z)^2 eta(4z)^2).  theta^(2k)
# has weight k, not 2k, so the two sides are not equal as series; only
# their constant terms are compared, and they differ by 1/2.
# name -> (level, weight, r, coeffs)
THETA_REMAINDERS = {
    "theta-power-eisenstein-part-2k2": (4, 2, {1: -4, 2: 10, 4: -4}, {1: 4, 4: -16}),
    "theta-power-eisenstein-part-2k4": (4, 4, {1: -8, 2: 20, 4: -8}, {1: 8, 2: -16, 4: 128}),
}


def _check_equal(
    name: str, weight: int, level: int, bound: int, lhs: QSeries, rhs: QSeries
) -> IdentityCheck:
    diff = lhs - rhs
    v = diff.valuation()
    if v is None:
        return IdentityCheck(name, weight, level, bound, "ok")
    c = diff.coeff(v)
    mismatch = f"q^({diff.offset + 24 * v}/24) coefficient differs by {c}"
    return IdentityCheck(name, weight, level, bound, "mismatch", first_mismatch=mismatch)


def _identity_rows():
    """(name, weight, level, sides) for every table equality, sides(n)
    giving both sides through q^n.  By the valence formula an eta side's
    leading exponent, which D keeps, is at most its Sturm bound (0 in ETA_EISENSTEIN)."""
    for name, (a, b, c, e) in CONVOLUTIONS.items():
        yield name, 4, b, lambda n, a=a, b=b, c=c, e=e: (
            _combination(2, {a: 1}, n + 1) * _combination(2, {b: 1}, n + 1),
            _combination(4, c, n + 1) + _combination(2, e, n + 1).ramanujan_d(),
        )
    for name, (level, r, coeffs) in ETA_EISENSTEIN.items():
        g = EtaQuotient(level, r)
        k = int(g.weight())
        yield name, k, level, lambda n, g=g, k=k, coeffs=coeffs: (
            g.expansion(n + 1), _combination(k, coeffs, n + 1)
        )
    for name, (level, f, g, c) in ETA_DERIVATIVES.items():
        f, g = EtaQuotient(level, f), EtaQuotient(level, g)
        lead = f.offset() // 24  # of both sides: D(f) = c g
        yield name, int(g.weight()), level, lambda n, f=f, g=g, c=c, lead=lead: (
            f.expansion(n + 1 - lead).ramanujan_d(), g.expansion(n + 1 - lead) * c
        )


def verify_identities(prec: int | None = None) -> list[IdentityCheck]:
    """Exact verification of the product-to-sum and differential identities.

    Each table equality is checked coefficient-by-coefficient through
    max(50, 2*sturm_bound(weight, level)) q-exponents, or through
    ``prec``, which must reach their largest Sturm bound (ValueError
    otherwise).  The theta-power rows are expected to leave a remainder:
    they compare the constant term only (bound 0) and report its
    discrepancy.
    """
    rows = list(_identity_rows())
    if prec is not None:
        bound, name = max((sturm_bound(k, level), name) for name, k, level, _ in rows)
        if prec < bound:
            raise ValueError(f"prec {prec} lies below the Sturm bound of {name}, {bound} q-exponents")
    out = []
    for name, k, level, sides in rows:
        n = prec if prec is not None else max(50, 2 * sturm_bound(k, level))
        out.append(_check_equal(name, k, level, n, *sides(n)))
    for name, (level, weight, r, coeffs) in THETA_REMAINDERS.items():
        theta_pow = EtaQuotient(level, r).expansion(1)
        const = theta_pow.coeff(0) - _combination(weight, coeffs, 1).coeff(0)
        status = "remainder" if const == Fraction(1, 2) else "mismatch"
        note = f"non-modular remainder; constant-term discrepancy {const}"
        out.append(IdentityCheck(name, weight, level, 0, status, note=note))
    return sorted(out, key=lambda c: c.identity)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def random_p_element(rng: random.Random, k: int, p: int, m: int) -> EisensteinElement:
    """Random element with r_1 != 0 and r_{p^m} != 0 (plus the weight-2
    balance when k = 2, sampled in the E_2(z) - d E_2(dz) basis), its
    integer coefficients drawn from -9 .. 9."""
    n = p**m
    divs = divisors(n)
    if k == 2:
        if m == 0:
            raise ValueError("the weight-2 space at level 1 is trivial")
        while True:
            cs = {d: Fraction(rng.randint(-9, 9)) for d in divs if d > 1}
            if cs[n] == 0 or sum(cs.values()) == 0:
                continue
            coeffs = {1: sum(cs.values())}
            for d, c in cs.items():
                coeffs[d] = -d * c
            return EisensteinElement(2, n, coeffs)
    while True:
        coeffs = {d: Fraction(rng.randint(-9, 9)) for d in divs}
        if coeffs[1] != 0 and coeffs[n] != 0:
            return EisensteinElement(k, n, coeffs)
