"""Published lists and independent arithmetic used by the benchmark's checks.

Nothing here imports etaq.  The classification lists are copied from the
published tables (with the one certified correction: the first printed
level-4 entry, eta(1)^4, is replaced by eta(1)^8 eta(2)^-4), and every
number a check compares against is recomputed here from first
principles: divisor sums, partition numbers, Bernoulli numbers, naive
eta products and cyclotomic reduction.  An edit to the program therefore
cannot make a check vacuous.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt

# -- published lists --------------------------------------------------------

# (level, exponents) of the twelve weight-2 quotients in the weight-2
# Eisenstein span, first entry in its corrected form.
WEIGHT2 = [
    (4, {1: 8, 2: -4}),
    (4, {2: -4, 4: 8}),
    (4, {1: -8, 2: 20, 4: -8}),
    (8, {1: 4, 2: -6, 4: 10, 8: -4}),
    (8, {1: -4, 2: 10, 4: -6, 8: 4}),
    (8, {1: -4, 2: 6, 4: 6, 8: -4}),
    (8, {1: 4, 2: -2, 4: -2, 8: 4}),
    (9, {1: -3, 3: 10, 9: -3}),
    (16, {1: 2, 2: -5, 4: 8, 8: 1, 16: -2}),
    (16, {1: -2, 2: 1, 4: 8, 8: -5, 16: 2}),
    (16, {1: -2, 2: 1, 4: 6, 8: 1, 16: -2}),
    (16, {1: 2, 2: -5, 4: 10, 8: -5, 16: 2}),
]

# (level, exponents) of the four weight-4 quotients.
WEIGHT4 = [
    (2, {1: -8, 2: 16}),
    (2, {1: 16, 2: -8}),
    (4, {1: -16, 2: 40, 4: -16}),
    (4, {1: 8, 2: -8, 4: 8}),
]

# Published weight-0 antiderivatives f, in the order of WEIGHT2: D(f)/f is
# a constant multiple of the weight-2 quotient g at the same index.
ANTIDERIVATIVES = [
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

# (weight, level) search cells: populated ones, then the thirteen that
# must come back empty.
POPULATED_CELLS = [(2, 4), (2, 8), (2, 9), (2, 16), (4, 2), (4, 4)]
EMPTY_CELLS = [
    (2, 1), (4, 1), (6, 1), (8, 1), (10, 1),
    (2, 2), (6, 2), (6, 4),
    (2, 3), (4, 3),
    (2, 5), (2, 25),
    (2, 7),
]

# The known level-4 second-derivative solution: D^2(eta(2)^2/eta(1)^4)
# = 4 eta(2)^18/eta(1)^12.
SECOND_DERIVATIVE_KNOWN = (-4, 2, 0)

EQUALITY_IDENTITIES = [
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
THETA_REMAINDER_IDENTITIES = [
    "theta-power-eisenstein-part-2k2",
    "theta-power-eisenstein-part-2k4",
]


def expected_cell(k: int, level: int) -> set[tuple]:
    """Frozen exponent maps the (k, level) search must return."""
    table = WEIGHT2 if k == 2 else WEIGHT4 if k == 4 else []
    return {freeze(e) for lv, e in table if lv == level}


def freeze(exps: dict[int, int]) -> tuple:
    return tuple(sorted((int(t), int(r)) for t, r in exps.items() if r))


# -- elementary arithmetic --------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def sigma(power: int, n: int) -> int:
    return sum(d**power for d in divisors(n))


def sigma_table(power: int, limit: int) -> list[int]:
    """sigma_power(n) for 0 <= n <= limit (index 0 holds 0)."""
    table = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dp = d**power
        for n in range(d, limit + 1, d):
            table[n] += dp
    return table


def totient(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, isqrt(p) + 1))]


def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by sum_{j<=n} C(n+1, j) B_j = 0."""
    bs = [Fraction(1)]
    for n in range(1, k + 1):
        bs.append(-sum(comb(n + 1, j) * bs[j] for j in range(n)) / (n + 1))
    return bs[k]


def eisenstein_constant(k: int) -> Fraction:
    """Constant term -B_k/(2k) of E_k = -B_k/(2k) + sum sigma_{k-1}(n) q^n."""
    return -bernoulli(k) / (2 * k)


def cusp_count(level: int) -> int:
    return sum(totient(gcd(c, level // c)) for c in divisors(level))


def eta_order(level: int, exps: dict[int, int], c: int) -> Fraction:
    """Width-normalised order of an eta quotient at a cusp with denominator c."""
    acc = sum(Fraction(gcd(c, t) ** 2 * r, t) for t, r in exps.items())
    return Fraction(level, 24 * gcd(c * c, level)) * acc


# -- series computed apart from the program ---------------------------------


def naive_eta_product(exps: dict[int, int], nterms: int) -> list[int]:
    """Coefficients of prod_t prod_n (1 - q^(tn))^(r_t), q^0 .. q^(nterms-1).

    One factor (1 - q^m) at a time: multiplication is a backward sweep,
    division (negative r_t) a forward prefix sweep.
    """
    out = [1] + [0] * (nterms - 1)
    for t, r in exps.items():
        for m in range(t, nterms, t):
            for _ in range(abs(r)):
                if r > 0:
                    for i in range(nterms - 1, m - 1, -1):
                        out[i] -= out[i - m]
                else:
                    for i in range(m, nterms):
                        out[i] += out[i - m]
    return out


def partitions(limit: int) -> list[int]:
    """p(0..limit) by Euler's pentagonal recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        acc, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            acc += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                acc += sign * p[n - g2]
            k += 1
        p[n] = acc
    return p


def delta_from_eisenstein(limit: int) -> list[int]:
    """tau(0..limit) from Delta = (E4^3 - E6^2)/1728, E4, E6 normalised to 1."""
    s3, s5 = sigma_table(3, limit), sigma_table(5, limit)
    e4 = [1] + [240 * s3[n] for n in range(1, limit + 1)]
    e6 = [1] + [-504 * s5[n] for n in range(1, limit + 1)]

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (limit + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(limit + 1 - i):
                    out[i + j] += ai * b[j]
        return out

    num = [x - y for x, y in zip(mul(mul(e4, e4), e4), mul(e6, e6))]
    assert all(v % 1728 == 0 for v in num)
    return [v // 1728 for v in num]


def r4(n: int) -> int:
    """Representations of n as a sum of four squares (Jacobi)."""
    if n == 0:
        return 1
    return 8 * sigma(1, n) - (32 * sigma(1, n // 4) if n % 4 == 0 else 0)


def r8(n: int) -> int:
    """Representations of n as a sum of eight squares."""
    if n == 0:
        return 1
    return 16 * sum((-1) ** (n + d) * d**3 for d in divisors(n))


def williams_eisenstein(nterms: int) -> list[Fraction]:
    """2E2(z) - 3E2(2z) + 4E2(4z) + 9E2(6z) - 36E2(12z), q^0 .. q^(nterms-1)."""
    combo = {1: 2, 2: -3, 4: 4, 6: 9, 12: -36}
    c2 = eisenstein_constant(2)
    out = [sum(r for r in combo.values()) * c2]
    for n in range(1, nterms):
        out.append(Fraction(sum(r * sigma(1, n // t) for t, r in combo.items() if n % t == 0)))
    return out


def eisenstein_at_infinity(k: int, t: int, nterms: int) -> list[Fraction]:
    """E_k(tz), q^0 .. q^(nterms-1)."""
    out = [eisenstein_constant(k)]
    for n in range(1, nterms):
        out.append(Fraction(sigma(k - 1, n // t)) if n % t == 0 else Fraction(0))
    return out


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Unique solution of an overdetermined system, None if inconsistent."""
    ncols = len(rows[0])
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols + 1):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if col == ncols:
            return None
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return [m[i][ncols] for i in range(ncols)]


def sturm_bound(k: int, level: int) -> int:
    mu = level
    for p in primes_upto(level):
        if level % p == 0:
            mu += mu // p
    return k * mu // 12


def eisenstein_match(level: int, exps: dict[int, int]) -> tuple[int, dict[int, Fraction]]:
    """(k, {t: a_t}) with eta quotient = sum a_t E_k(tz), through 2x Sturm.

    The q-expansion comes from naive_eta_product, and agreement of two
    weight-k forms on Gamma0(level) through the Sturm bound proves the
    identity.
    """
    k2 = sum(exps.values())
    assert k2 % 2 == 0
    k = k2 // 2
    offset = sum(t * r for t, r in exps.items())
    assert offset % 24 == 0
    shift = offset // 24
    ds = divisors(level)
    nrows = max(2 * sturm_bound(k, level) + 2, level + 1)
    series = [0] * shift + naive_eta_product(exps, nrows + 1 - shift)
    cols = [eisenstein_at_infinity(k, t, nrows + 1) for t in ds]
    rows = [[col[j] for col in cols] for j in range(nrows + 1)]
    rhs = [Fraction(v) for v in series[: nrows + 1]]
    sol = solve(rows, rhs)
    if sol is None:
        raise ValueError(f"no Eisenstein match for {exps} at level {level}")
    return k, {t: a for t, a in zip(ds, sol) if a}


def cyclotomic_polynomial(order: int) -> list[int]:
    """Phi_order for a prime power order (or 1), constant term first."""
    if order == 1:
        return [-1, 1]
    p = next(q for q in range(2, order + 1) if order % q == 0)
    step = order // p
    rest = step
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError(f"cyclotomic order {order} is not a prime power")
    poly = [0] * ((p - 1) * step + 1)
    for u in range(p):
        poly[u * step] = 1
    return poly


def cyclotomic_is_zero(coeffs: list[Fraction], order: int) -> bool:
    """Whether sum c_j zeta^j vanishes: c(x) divisible by Phi_order."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        q = rem[i]
        if q:
            for j in range(deg + 1):
                rem[i - deg + j] -= q * phi[j]
    return all(c == 0 for c in rem[:deg])
