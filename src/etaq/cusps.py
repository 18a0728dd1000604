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
g = c/gcd(t,c), read off the cusp's d (see _omega).
Coefficients therefore live in Q(zeta_L) with L = N/c, the lcm of the
t' over t | N; vanishing is decided by the exact cyclotomic zero test,
and the computed order of vanishing must be independent of d (shifting
d by a multiple of c rotates omega_t but not the order).  It depends
on c alone: once d and d' are shifted to units mod L, d' = u d, so the
coefficients at a'/c are those at a/c under zeta_L -> zeta_L^u.

The element enters only through its scalars r_t (gcd(t,c)/t)^k, held
as integers W_t over one denominator D.  The rest is the integer map
of the cusp, _cusp_map: for each t | N, t'^k and a column of
(e, j, sigma_{k-1}(n)) for the steps e = n * step_t below prec, with
omega_t^n = zeta_L^j.  A window lo <= e < hi applies it to the W_t,
each term writing only into the slice of its column in the window.
An expansion is the window [0, prec), its numerators handed to
QSeries._cyclotomic (see etaq.series).  An order is the first step of
the doubling windows [0, 1), [1, 2), [2, 4), ... that CycNumber._steps
makes nonempty and CycNumber.is_zero finds nonzero: no series is built.
check_order_bound computes one order per denominator c, reports it
under every cusp label with that c, and totals the reported orders.
Both results, CuspExpansion and OrderBoundReport, are NamedTuples.

Two bounded caches hold shapes, never element data or coefficients:
the maps, keyed on (N, c, d mod L, k, prec), since w_t depends on d
only modulo t' | L; and the cusp representatives of a level, of which
cusp_reps returns a fresh list on every call.

arith.denominator_multiplicity(N, c) counts the cusps with denominator
c; their widths sum to arith.gamma0_index(N).  On elements matched to
eta quotients, orders agree with the closed form EtaQuotient.order_map24.

For weight 2 the non-holomorphic correction of E_2 under slashing
cancels across the sum because elements satisfy sum_t r_t/t = 0; it is
never represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

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

Column = tuple[tuple[int, int, int], ...]  # (e, j, s) per step, see _cusp_map
Term = tuple[int, int, Column]  # (W_t, step_t, column_t), see _cusp_scalars


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


class CuspExpansion(NamedTuple):
    cusp: Cusp
    series: QSeries  # offset 0, whole steps of the local variable q_{c,N}


def _omega(n: int, c: int, d: int, t: int) -> int:
    """w_t with omega_t = zeta_L^w_t, L = n/c, for E_k(tz) at a cusp a/c
    of Gamma0(n) with this d.  t' = t/gcd(t,c) divides L, since
    v_p(t) - min(v_p(t), v_p(c)) <= v_p(N) - v_p(c), and t = N gives L.

    omega_t = zeta_t'^(-d f) for (e f; g h) in SL2(Z) with e = a t' and
    g = c/gcd(t,c).  As t' | e, e h - f g = 1 gives -f g = 1 (mod t'), so
    -d f = d g^-1 (mod t') for every such f; t' = 1 gives w_t = 0.  As
    t' | L, w_t depends on d only modulo L.
    """
    ct = gcd(t, c)
    tprime = t // ct
    return d * pow(c // ct, -1, tprime) % tprime * (n // c // tprime)


@lru_cache(maxsize=1024)
def _cusp_map(n: int, c: int, d: int, k: int, prec: int) -> dict[int, tuple[int, int, Column]]:
    """{t: (t'^k, step_t, column_t)} for every t | n at a cusp a/c of
    Gamma0(n) whose d is d mod L, L = n/c: column_t lists, for
    m = 1, 2, ... with e = m step_t < prec, the triple (e, j, s) with
    omega_t^m = zeta_L^j and s = sigma_{k-1}(m).  Read-only."""
    order = n // c
    table = sigma_table(k - 1, prec - 1)
    out = {}
    for t in divisors(n):
        step, w = cusp_step(n, c, t), _omega(n, c, d, t)
        column = tuple((m * step, m * w % order, table[m]) for m in range(1, (prec - 1) // step + 1))
        out[t] = (t // gcd(t, c)) ** k, step, column
    return out


def _cusp_scalars(f: EisensteinElement, cusp: Cusp, prec: int) -> tuple[int, list[Term], int]:
    """(L, terms, D) with one term (W_t, step_t, column_t) per t of f,
    read from the cusp's map below prec: P_t = r_t (gcd(t,c)/t)^k =
    r_t / t'^k is W_t / D over the one denominator D."""
    if cusp.level != f.level:
        raise ValueError(f"cusp lives on Gamma0({cusp.level}) but element on Gamma0({f.level})")
    order = f.level // cusp.c
    shape = _cusp_map(f.level, cusp.c, cusp.d % order, f.k, prec)
    raw = [(r.numerator, r.denominator * tk, step, column)
           for t, r in f.coeffs.items() for tk, step, column in [shape[t]]]
    den = lcm(*[pd for _, pd, _, _ in raw])
    return order, [(pn * (den // pd), step, column) for pn, pd, step, column in raw], den


def _window(
    terms: list[Term], den: int, k: int, lo: int, hi: int
) -> tuple[list[dict[int, int] | None], int]:
    """The integer numerators {j: n} of the steps lo <= e < hi, None
    where no term lands, over their one denominator.

    Term t contributes P_t * const at e = 0 and P_t * sigma_{k-1}(m) at
    e = m * step_t, with const = -B_k/2k.  Over D * den(const) those are
    the integers W_t num(const) and W_t den(const) s, where (e, j, s)
    runs over the slice of column_t inside the window.
    """
    const = _constant(k)
    accs: list[dict[int, int] | None] = [None] * (hi - lo)
    if lo == 0:  # every term's m = 0 lands on zeta^0 at e = 0
        accs[0] = {0: const.numerator * sum(num for num, _, _ in terms)}
    for num, step, column in terms:
        scale = num * const.denominator
        for e, j, s in column[max(-(-lo // step), 1) - 1 : (hi - 1) // step]:
            acc = accs[e - lo]
            if acc is None:
                accs[e - lo] = {j: scale * s}
            else:
                acc[j] = acc.get(j, 0) + scale * s
    return accs, den * const.denominator


def expansion_at_cusp(f: EisensteinElement, cusp: Cusp, prec: int) -> CuspExpansion:
    """Expansion of (cz+d)^(-k) f(Mz) in q_{c,N} below exponent prec."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    order, terms, den = _cusp_scalars(f, cusp, prec)
    accs, d = _window(terms, den, f.k, 0, prec)
    return CuspExpansion(cusp, QSeries._cyclotomic(CycNumber, order, accs, d))


def order_at_cusp(f: EisensteinElement, cusp: Cusp, prec: int | None = None) -> int:
    """Order of vanishing of f at the cusp in the q_{c,N} variable.

    It is the first exactly nonzero step of the doubling windows [lo, hi)
    in [0, 1), [1, 2), [2, 4), ... below prec, each tested straight from
    its numerators, so a low order costs a short window; raises
    precision-exhausted if no step below prec is nonzero (impossible for
    nonzero elements once prec exceeds the Sturm bound).
    """
    if not f.coeffs:
        raise ValueError("order of the zero element is undefined")
    if prec is None:
        # Valence formula: the orders of a nonzero weight-k form on
        # Gamma0(N), at the cusps in their local variables and at interior
        # points with weight 1, 1/2 or 1/3, are nonnegative and sum to
        # k*mu/12.  So its order at one cusp is an integer at most
        # floor(k*mu/12) = sturm_bound(k, N), which exponents 0 .. prec - 1
        # decide.
        prec = sturm_bound(f.k, f.level) + 1
    elif prec < 1:
        raise ValueError("prec must be >= 1")
    order, terms, den = _cusp_scalars(f, cusp, prec)
    lo = 0
    while lo < prec:
        hi = min(2 * lo or 1, prec)
        accs, d = _window(terms, den, f.k, lo, hi)
        for e, x in enumerate(CycNumber._steps(order, accs, d), lo):
            if x.terms and not x.is_zero():
                return e
        lo = hi
    raise SeriesDomainError("precision-exhausted", f"no nonzero coefficient below {prec}")


# ---------------------------------------------------------------------------
# the order-sum bound
# ---------------------------------------------------------------------------


def order_sum_bound(level: int) -> int:
    """Strict upper bound for the total cusp order of an element that is
    new at a prime-power level (nonzero r_1 and r_{p^m}): the cusp count
    (1 at level 1), except 4 at level 4."""
    if prime_power(level) is None:
        raise ValueError(f"bound defined for prime-power levels, got {level}")
    return 4 if level == 4 else cusp_count(level)


class OrderBoundReport(NamedTuple):
    element: EisensteinElement
    level: int
    orders: dict[str, int]  # cusp label -> order
    total: int
    bound: int
    violations: tuple[str, ...]

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
    for cusp in cusp_reps(level):
        v = by_denominator.get(cusp.c)
        if v is None:
            v = by_denominator[cusp.c] = order_at_cusp(f, cusp)
        orders[cusp.label()] = v
        cap = per_cusp_cap(level, cusp.c)
        if v > cap:
            violations.append(f"order {v} at cusp {cusp.label()} exceeds cap {cap}")
    total = sum(orders.values())
    if total >= bound:
        violations.append(f"total order {total} reaches bound {bound}")
    return OrderBoundReport(f, level, orders, total, bound, tuple(violations))
