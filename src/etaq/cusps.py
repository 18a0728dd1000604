"""Cusps of Gamma0(N) and Fourier expansions of Eisenstein elements there.

A cusp a/c (gcd(a,c) = 1, c | N) carries its width N/gcd(c^2, N) and
one integer d with a d = 1 (mod c), which completes (a, c) to
M = (a b; c d) in SL2(Z) with b = (a d - 1)/c; no other entry of M is
ever read.  For f = sum_t r_t E_k(tz) the expansion of
(cz+d)^(-k) f(Mz) is supported on integral powers of the local variable
q_{c,N} = e^(2 pi i gcd(c^2,N) z / N):

    coefficient of q_{c,N}^(n * step_t)  gains  r_t * a_n(c,t) * omega_t^n,

with step_t = gcd(t,c)^2 N / (t gcd(c^2, N)) = arith.cusp_step(N, c, t)
(24 times the order of eta(tz) at a/c), the rational prefactors
a_0 = (gcd(t,c)/t)^k (-B_k/2k) and a_n = (gcd(t,c)/t)^k sigma_{k-1}(n),
and omega_t = zeta_t'^(d g^-1 mod t'), with t' = t/gcd(t,c) and
g = c/gcd(t,c), read off the cusp's d (see _cusp_terms).
Coefficients therefore live in Q(zeta_L) with L = N/c, the lcm of the
t' over t | N; vanishing is decided by the exact cyclotomic zero test,
and the computed order of vanishing must be independent of d (shifting
d by a multiple of c rotates omega_t but not the order).  It depends
on c alone: once d and d' are shifted to units mod L, d' = u d, so the
coefficients at a'/c are those at a/c under zeta_L -> zeta_L^u.  Each
term is held as the integers step_t, w_t (omega_t = zeta_L^w_t) and
the numerator of r_t (gcd(t,c)/t)^k over one denominator shared by all
terms.

The numerators of a window lo <= e < hi are built by one scatter:
each term writes its integer contributions only at its own multiples
e = n * step_t in the window.  An expansion is the window [0, prec),
whose numerators the scatter hands to QSeries._cyclotomic (see
etaq.series); an order tests the doubling windows [0, 1), [1, 2),
[2, 4), ... straight from the scatter, normalising and zero-testing
each nonempty step, and stops at the first nonzero one.
check_order_bound computes one order per denominator c and reports it
under every cusp label with that c.

Two bounded caches hold shapes, never element data or coefficients:
the per-t triples (step_t, w_t, t'^k) of _cusp_terms, keyed on
(N, c, d mod L, k), since w_t depends on d only modulo t' | L; and the
cusp representatives of a level, of which cusp_reps returns a fresh
list on every call.

arith.denominator_multiplicity(N, c) counts the cusps with denominator
c; their widths sum to arith.gamma0_index(N).  On elements matched to
eta quotients, orders agree with the closed form EtaQuotient.order_map24.

For weight 2 the non-holomorphic correction of E_2 under slashing
cancels across the sum because elements satisfy sum_t r_t/t = 0; it is
never represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm

from .arith import (
    cusp_step,
    denominator_multiplicity,
    divisors,
    per_cusp_cap,
    prime_power,
    sigma_table,
)
from .cyclotomic import CycNumber
from .eisenstein import EisensteinElement, MembershipTag, _constant, sturm_bound
from .series import QSeries, SeriesDomainError

__all__ = [
    "Cusp",
    "cusp_reps",
    "cusp_count",
    "CuspExpansion",
    "expansion_at_cusp",
    "order_at_cusp",
    "order_sum_bound",
    "OrderBoundReport",
    "check_order_bound",
]

Term = tuple[int, int, int]  # (step_t, w_t, W_t), see _cusp_terms


@dataclass(frozen=True)
class Cusp:
    """Cusp a/c of Gamma0(level) with a d such that a d = 1 (mod c).

    The default d is the least positive inverse of a mod c, or 1 when
    c = 1; orders do not depend on which d is chosen.
    """

    a: int
    c: int
    level: int
    d: int

    def __init__(self, a: int, c: int, level: int, d: int | None = None):
        if c < 1 or level % c:
            raise ValueError(f"denominator {c} must be a positive divisor of {level}")
        if gcd(a, c) != 1:
            raise ValueError(f"cusp needs gcd(a, c) = 1, got {a}/{c}")
        if d is None:
            d = pow(a, -1, c) or 1  # pow gives 0 only for c = 1
        elif (a * d - 1) % c:
            raise ValueError(f"cusp {a}/{c} needs a*d = 1 (mod {c}), got d = {d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "d", d)

    @property
    def width(self) -> int:
        return self.level // gcd(self.c * self.c, self.level)

    def key(self) -> tuple[int, int]:
        """Gamma0(level)-equivalence key: (c, a mod gcd(c, N/c))."""
        g = gcd(self.c, self.level // self.c)
        return (self.c, self.a % g if g > 1 else 0)

    def label(self) -> str:
        return f"{self.a}/{self.c}"

    def __repr__(self):
        return f"Cusp({self.label()} on Gamma0({self.level}))"


def cusp_count(level: int) -> int:
    return sum(denominator_multiplicity(level, c) for c in divisors(level))


def cusp_reps(level: int) -> list[Cusp]:
    """Canonical inequivalent cusp representatives, sorted by (c, a).

    For each c | level the numerators run over the residues coprime to
    c modulo gcd(c, level/c), taking the least positive representative
    coprime to c (so a = 1 is always among them).
    """
    return list(_cusp_reps(level))


@lru_cache(maxsize=256)
def _cusp_reps(level: int) -> tuple[Cusp, ...]:
    out: list[Cusp] = []
    for c in divisors(level):
        g = gcd(c, level // c)
        for res in range(g):
            if g > 1 and gcd(res, g) != 1:
                continue
            a = res if res else g  # least positive member of the class
            while gcd(a, c) != 1:
                a += g
            out.append(Cusp(a, c, level))
    return tuple(sorted(out, key=lambda cu: (cu.c, cu.a)))


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuspExpansion:
    cusp: Cusp
    series: QSeries  # offset 0, whole steps of the local variable q_{c,N}


@lru_cache(maxsize=1024)
def _cusp_shape(n: int, c: int, d: int, k: int) -> dict[int, tuple[int, int, int]]:
    """{t: (step_t, w_t, t'^k)} for every t | n at a cusp a/c of
    Gamma0(n) whose d is d mod L (see _cusp_terms).  Read-only."""
    order = n // c
    out = {}
    for t in divisors(n):
        ct = gcd(t, c)
        tprime = t // ct
        w = d * pow(c // ct, -1, tprime) % tprime * (order // tprime)
        out[t] = (cusp_step(n, c, t), w, tprime**k)
    return out


def _cusp_terms(f: EisensteinElement, cusp: Cusp) -> tuple[int, int, list[Term]]:
    """(L, D, terms) with one term (step_t, w_t, W_t) per t: the exponent
    step, omega_t = zeta_L^w_t, and P_t = r_t (gcd(t,c)/t)^k = W_t / D
    over the one denominator D, the lcm of the P_t denominators.

    L = lcm over t | N of t' = t/gcd(t,c) is N/c: t' divides N/c, since
    v_p(t) - min(v_p(t), v_p(c)) <= v_p(N) - v_p(c), and t = N gives N/c.

    omega_t = zeta_t'^(-d f) for (e f; g h) in SL2(Z) with e = a t' and
    g = c/gcd(t,c).  As t' | e, e h - f g = 1 gives -f g = 1 (mod t'), so
    -d f = d g^-1 (mod t') for every such f; t' = 1 gives w_t = 0.  As
    t' | L, the step, w_t and t'^k depend only on (N, c, d mod L, k) and
    are read from _cusp_shape.
    """
    if cusp.level != f.level:
        raise ValueError(f"cusp lives on Gamma0({cusp.level}) but element on Gamma0({f.level})")
    n, c, k = f.level, cusp.c, f.k
    order = n // c
    shape = _cusp_shape(n, c, cusp.d % order, k)
    raw = []
    for t, r in f.coeffs.items():
        step, w, tk = shape[t]
        pn, pd = r.numerator, r.denominator * tk
        g = gcd(pn, pd)
        raw.append((step, w, pn // g, pd // g))
    den = lcm(*(pd for _, _, _, pd in raw))
    return order, den, [(step, w, pn * (den // pd)) for step, w, pn, pd in raw]


def _scatter(
    order: int, den: int, terms: list[Term], k: int, prec: int, lo: int = 0
) -> tuple[list[dict[int, int] | None], int]:
    """The integer numerators {j: n} of the steps lo <= e < prec, None
    where no term lands, over their one denominator.

    Term t contributes P_t * const at n = 0 and P_t * sigma_{k-1}(n) at
    n = e/step_t >= 1, with const = -B_k/2k.  Over den * den(const)
    those are the integers W_t num(const) and W_t den(const) sigma(n),
    read from one sigma table.  Each term scatters into its own
    multiples e = n * step_t of the window, so no step is visited by a
    term that misses it.
    """
    const = _constant(k)
    table = sigma_table(k - 1, prec - 1)
    accs: list[dict[int, int] | None] = [None] * (prec - lo)
    if lo == 0:  # every term's n = 0 lands on zeta^0 at e = 0
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


def expansion_at_cusp(f: EisensteinElement, cusp: Cusp, prec: int) -> CuspExpansion:
    """Expansion of (cz+d)^(-k) f(Mz) in q_{c,N} below exponent prec."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    order, den, terms = _cusp_terms(f, cusp)
    accs, d = _scatter(order, den, terms, f.k, prec)
    return CuspExpansion(cusp, QSeries._cyclotomic(CycNumber, order, accs, d))


def _default_order_prec(f: EisensteinElement) -> int:
    # Valence formula: the orders of a nonzero weight-k form on Gamma0(N),
    # at the cusps in their local variables and at interior points with
    # weight 1, 1/2 or 1/3, are nonnegative and sum to k*mu/12.  So its
    # order at one cusp is an integer at most floor(k*mu/12) =
    # sturm_bound(k, N), and the exponents 0 .. sturm_bound decide it.
    return sturm_bound(f.k, f.level) + 1


def order_at_cusp(f: EisensteinElement, cusp: Cusp, prec: int | None = None) -> int:
    """Order of vanishing of f at the cusp in the q_{c,N} variable.

    The nonempty steps of the doubling windows [0, 1), [1, 2), [2, 4),
    ... below prec are normalised and tested exactly from exponent 0
    upward, so a low order costs a short window; raises
    precision-exhausted if none is nonzero below prec (impossible for
    nonzero elements once prec exceeds the Sturm bound).
    """
    if f.is_zero():
        raise ValueError("order of the zero element is undefined")
    if prec is None:
        prec = _default_order_prec(f)
    elif prec < 1:
        raise ValueError("prec must be >= 1")
    order, den, terms = _cusp_terms(f, cusp)
    lo = 0
    while lo < prec:
        hi = min(2 * lo or 1, prec)
        accs, d = _scatter(order, den, terms, f.k, hi, lo)
        for e, acc in enumerate(accs, lo):
            if acc and not CycNumber._normal(order, acc, d).is_zero():
                return e
        lo = hi
    raise SeriesDomainError("precision-exhausted", f"no nonzero coefficient below {prec}")


# ---------------------------------------------------------------------------
# the order-sum bound
# ---------------------------------------------------------------------------


def order_sum_bound(level: int) -> int:
    """Strict upper bound for the total cusp order of an element that is
    new at a prime-power level (nonzero r_1 and r_{p^m}): 1 at level 1,
    4 at level 4, and the cusp count otherwise."""
    pp = prime_power(level)
    if pp is None:
        raise ValueError(f"bound defined for prime-power levels, got {level}")
    if level == 1:
        return 1
    if level == 4:
        return 4
    return cusp_count(level)


@dataclass(frozen=True)
class OrderBoundReport:
    element: EisensteinElement
    level: int
    orders: dict[str, int]  # cusp label -> order
    total: int
    bound: int
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "element": self.element.render(),
            "level": self.level,
            "orders": dict(sorted(self.orders.items())),
            "total": self.total,
            "bound": self.bound,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def check_order_bound(f: EisensteinElement) -> OrderBoundReport:
    """Verify the strict order-sum bound and per-cusp caps for an element
    classified IN_P at a prime-power level; returns the full order vector
    and any violated assertion as a counterexample entry.

    Orders depend only on the cusp's denominator (module docstring), so
    one order is computed per c and reported under every label with it.
    """
    tag = f.classify()
    if tag is not MembershipTag.IN_P:
        raise ValueError(f"bound check needs an IN_P element, got {tag.value}")
    level = f.level
    bound = order_sum_bound(level)
    by_denominator: dict[int, int] = {}
    orders: dict[str, int] = {}
    violations: list[str] = []
    total = 0
    for cusp in cusp_reps(level):
        v = by_denominator.get(cusp.c)
        if v is None:
            v = by_denominator[cusp.c] = order_at_cusp(f, cusp)
        orders[cusp.label()] = v
        total += v
        cap = per_cusp_cap(level, cusp.c)
        if v > cap:
            violations.append(f"order {v} at cusp {cusp.label()} exceeds cap {cap}")
    if total >= bound:
        violations.append(f"total order {total} reaches bound {bound}")
    return OrderBoundReport(f, level, orders, total, bound, tuple(violations))
