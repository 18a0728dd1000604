"""Classical Eisenstein series and their rational linear combinations.

E_k(z) = -B_k/(2k) + sum sigma_(k-1)(n) q^n for even k >= 2.  The
weight-k space on Gamma0(N) used here is spanned by E_k(dz) for d | N;
for k = 2, where E_2 alone is only quasimodular, elements are required
to satisfy sum_t r_t/t = 0, which is exactly the condition killing the
non-holomorphic term of the completed E_2 under the slash action.  The
constraint is enforced at construction so every element handed to the
cusp-expansion machinery transforms like a true modular form.

Also here: the Sturm equality bound, certified matching of eta
quotients against Eisenstein combinations (undetermined coefficients
plus agreement through twice the bound), and a suite of classical
product-to-sum and convolution identities verified exactly.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arith import bernoulli, divisors, factorize, lcm, prime_power, sigma_range
from .eta import EtaQuotient
from .linalg import solve_unique
from .series import QSeries, SeriesDomainError

__all__ = [
    "eisenstein_series",
    "eisenstein_coefficient",
    "EisensteinElement",
    "MembershipTag",
    "sturm_bound",
    "match_eta",
    "IdentityCheck",
    "verify_identities",
    "random_p_element",
]


def eisenstein_series(k: int, prec: int, scale: int = 1) -> QSeries:
    """E_k to precision prec (in q units): -B_k/2k + sum sigma_{k-1}(n) q^n."""
    if k < 2 or k % 2:
        raise ValueError(f"Eisenstein weight must be even >= 2, got {k}")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    table = sigma_range(k - 1, prec - 1)
    coeffs: list = [Fraction(-bernoulli(k), 2 * k)]
    coeffs += [Fraction(table[n]) for n in range(1, prec)]
    return QSeries(1, 0, coeffs, prec).to_scale(scale)


def eisenstein_coefficient(k: int, j: int, t: int = 1) -> Fraction:
    """Coefficient of q^j in E_k(tz)."""
    if j == 0:
        return Fraction(-bernoulli(k), 2 * k)
    if j % t:
        return Fraction(0)
    n = j // t
    total = sum(d ** (k - 1) for d in divisors(n))
    return Fraction(total)


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
            if level % t:
                raise ValueError(f"divisor {t} does not divide level {level}")
            r = Fraction(r)
            if r:
                clean[int(t)] = r
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

    def expansion(self, prec: int, scale: int = 1) -> QSeries:
        """q-expansion at infinity to precision prec in q units."""
        out = QSeries.constant(0, 1, prec)
        for t, r in self.coeffs.items():
            nterms = -(-prec // t)
            out = out + eisenstein_series(self.k, nterms).substitute_power(t).truncate(prec) * r
        return out.to_scale(scale)

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

    def scalar_mul(self, c) -> "EisensteinElement":
        c = Fraction(c)
        return EisensteinElement(self.k, self.level, {t: c * r for t, r in self.coeffs.items()})

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
    # split at +/- while keeping the sign with the term
    tokens = re.findall(r"[+-]?[^+-]+", cleaned)
    k: int | None = None
    coeffs: dict[int, Fraction] = {}
    for token in tokens:
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
        if k is None:
            k = kk
        elif k != kk:
            raise ValueError(f"mixed weights in combination: E{k} vs E{kk} in {token!r}")
        coeffs[t] = coeffs.get(t, Fraction(0)) + sign * c
    assert k is not None
    if level is None:
        level = 1
        for t in coeffs:
            level = lcm(level, t)
    return EisensteinElement(k, level, coeffs)


def sturm_bound(k: int, n: int) -> int:
    """floor(k * mu / 12) with mu = [SL2(Z) : Gamma0(n)]; coefficient
    agreement of two weight-k forms on Gamma0(n) through this index
    proves equality."""
    mu = n
    for p in factorize(n):
        mu += mu // p
    return (k * mu) // 12


def match_certification_rows(k: int, n: int, margin: int = 2) -> int:
    """Last q-exponent match_eta compares: at least twice the Sturm
    bound, and enough rows to pin every divisor coefficient."""
    return max(2 * sturm_bound(k, n) + margin, n + 1, len(divisors(n)) + 1)


def match_eta(g: EtaQuotient, margin: int = 2) -> EisensteinElement | None:
    """Certified Eisenstein combination equal to g, or None.

    Solves the linear system equating q-expansion coefficients of g
    with sum r_t E_k(tz) over t | level through twice the Sturm bound
    (adding the weight-2 balance row when k = 2).  Consistency of the
    full system is the certificate: both sides are modular of weight k
    on Gamma0(level), so agreement through the Sturm bound proves
    equality.  Preconditions: g passes the modularity criteria with
    even integer weight >= 2.
    """
    report = g.is_modular_on_gamma0()
    if not report.is_modular:
        raise ValueError(f"quotient fails modularity criteria: {report.failed()}")
    if report.weight < 2 or report.weight.denominator != 1 or report.weight % 2:
        raise ValueError(f"matching needs even integer weight >= 2, got {report.weight}")
    k = int(report.weight)
    n = g.level
    divs = divisors(n)
    rows = match_certification_rows(k, n, margin)
    # the expansion lives on q^(offset/24) * Z[[q]], so it is integral
    # exactly when the offset is
    if g.offset() % 24:
        raise AssertionError("integral-exponent expansion expected for modular quotient")
    exp = g.expansion(24 * rows + 1)

    a = [[eisenstein_coefficient(k, j, t) for t in divs] for j in range(rows + 1)]
    b = [Fraction(exp.coeff_q(j)) for j in range(rows + 1)]
    if k == 2:
        a.append([Fraction(1, t) for t in divs])
        b.append(Fraction(0))
    try:
        sol = solve_unique(a, b)
    except ValueError as exc:
        raise SeriesDomainError("precision-exhausted", str(exc)) from exc
    if sol is None:
        return None
    coeffs = {t: r for t, r in zip(divs, sol)}
    try:
        return EisensteinElement(k, n, coeffs)
    except ValueError:
        return None


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
        out = {
            "identity": self.identity,
            "weight": self.weight,
            "level": self.level,
            "bound": self.bound,
            "status": self.status,
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        if self.note is not None:
            out["note"] = self.note
        return out


def _e(k: int, t: int, prec: int) -> QSeries:
    return eisenstein_series(k, -(-prec // t)).substitute_power(t).truncate(prec)


def _d(x: QSeries) -> QSeries:
    return x.ramanujan_d()


def _convolution_sides(name: str, prec: int) -> tuple[QSeries, QSeries, int, int]:
    """The classical E_2-product convolution identities and rescalings."""
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
THETA_QUOTIENT = {1: -2, 2: 5, 4: -2}


def _theta_power_remainder(k: int, prec: int) -> Fraction:
    """Constant term of theta^(4k) minus its Eisenstein principal part.

    The classical representation-by-squares expression for theta^(4k)
    is exact only for 2k in {2, 4} up to a weight-2k remainder series;
    this returns the constant-term discrepancy (expected 1/2).
    """
    theta_pow = EtaQuotient(4, {t: 2 * k * r for t, r in THETA_QUOTIENT.items()})
    lhs = theta_pow.expansion(24 * prec + 1)
    kk = 2 * k
    denom = Fraction(2**kk - 1)
    sign = Fraction((-1) ** k)
    combo = {
        1: sign / denom,
        2: -(sign + 1) / denom,
        4: Fraction(2**kk) / denom,
    }
    scale = Fraction(-kk) / bernoulli(kk)  # -2k/B_2k with kk = 2k
    rhs = QSeries.constant(0, 1, prec)
    for t, c in combo.items():
        rhs = rhs + _e(kk, t, prec) * (scale * c)
    diff = lhs - rhs.to_scale(24)
    return Fraction(diff.coeff_q(0))


def _quotient_series(exps: dict[int, int], level: int, prec_q: int) -> QSeries:
    return EtaQuotient(level, exps).expansion(24 * prec_q + 1)


def _check_equal(name: str, lhs: QSeries, rhs: QSeries, weight: int, level: int, bound: int) -> IdentityCheck:
    diff = lhs - rhs
    v = diff.valuation()
    if v is None:
        return IdentityCheck(name, weight, level, bound, "ok")
    c = diff.coeff(v)
    mismatch = f"q^({v}/{diff.scale}) coefficient differs by {c}"
    return IdentityCheck(name, weight, level, bound, "mismatch", first_mismatch=mismatch)


def verify_identities(prec: int | None = None) -> list[IdentityCheck]:
    """Exact verification of the product-to-sum and differential identities.

    Each identity is checked coefficient-by-coefficient through
    max(50, 2*sturm_bound(weight, level)) q-exponents (or ``prec`` if
    given).  The theta-power checks are expected to leave a remainder
    and report its constant term instead of an equality.
    """
    out: list[IdentityCheck] = []

    conv_names = [
        ("besge-e2-square", 4, 1),
        ("besge-e2-square-z2", 4, 2),
        ("besge-e2-square-z4", 4, 4),
        ("huard-williams-e2-e2z2", 4, 2),
        ("huard-williams-e2-e2z2-z2", 4, 4),
        ("huard-williams-e2-e2z4", 4, 4),
    ]
    for name, w, lvl in conv_names:
        bound = prec if prec is not None else max(50, 2 * sturm_bound(w, lvl))
        lhs, rhs, _, _ = _convolution_sides(name, bound + 1)
        out.append(_check_equal(name, lhs, rhs, w, lvl, bound))

    bound = prec if prec is not None else max(50, 2 * sturm_bound(2, 4))
    lhs = _quotient_series(JACOBI_QUOTIENT, 4, bound)
    rhs = EisensteinElement(2, 4, JACOBI_ELEMENT).expansion(bound + 1, scale=24)
    out.append(_check_equal("jacobi-four-squares", lhs, rhs, 2, 4, bound))

    bound = prec if prec is not None else max(50, 2 * sturm_bound(2, 12))
    lhs = _quotient_series(WILLIAMS_QUOTIENT, 12, bound)
    rhs = EisensteinElement(2, 12, WILLIAMS_ELEMENT).expansion(bound + 1, scale=24)
    out.append(_check_equal("williams-table-no24", lhs, rhs, 2, 12, bound))

    bound = prec if prec is not None else max(50, 2 * sturm_bound(2, 4))
    lhs = _d(_quotient_series(DERIV4_INPUT, 4, bound))
    rhs = _quotient_series(DERIV4_OUTPUT, 4, bound)
    out.append(_check_equal("eta-derivative-level4", lhs, rhs, 2, 4, bound))

    bound = prec if prec is not None else max(50, 2 * sturm_bound(2, 12))
    lhs = _d(_quotient_series(DERIV12_INPUT, 12, bound))
    rhs = _quotient_series(DERIV12_OUTPUT, 12, bound) * 2
    out.append(_check_equal("eta-derivative-level12", lhs, rhs, 2, 12, bound))

    for k in (1, 2):
        bound = prec if prec is not None else max(50, 2 * sturm_bound(2 * k, 4))
        const = _theta_power_remainder(k, bound)
        status = "remainder" if const == Fraction(1, 2) else "mismatch"
        out.append(
            IdentityCheck(
                f"theta-power-eisenstein-part-2k{2*k}",
                2 * k,
                4,
                bound,
                status,
                note=f"non-modular remainder; constant-term discrepancy {const}",
            )
        )

    return sorted(out, key=lambda c: c.identity)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def random_p_element(rng: random.Random, k: int, p: int, m: int, bound: int = 9) -> EisensteinElement:
    """Random element with r_1 != 0 and r_{p^m} != 0 (plus the weight-2
    balance when k = 2, sampled in the E_2(z) - d E_2(dz) basis)."""
    n = p**m
    divs = divisors(n)
    if k == 2:
        if m == 0:
            raise ValueError("the weight-2 space at level 1 is trivial")
        while True:
            cs = {d: Fraction(rng.randint(-bound, bound)) for d in divs if d > 1}
            if cs[n] == 0 or sum(cs.values()) == 0:
                continue
            coeffs = {1: sum(cs.values())}
            for d, c in cs.items():
                coeffs[d] = -d * c
            return EisensteinElement(2, n, coeffs)
    while True:
        coeffs = {d: Fraction(rng.randint(-bound, bound)) for d in divs}
        if coeffs[1] != 0 and coeffs[n] != 0:
            return EisensteinElement(k, n, coeffs)
