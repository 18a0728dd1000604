"""Exact integer/rational building blocks, checked against independent
oracles (the Bernoulli recurrence and divisor enumeration are recomputed
here from scratch rather than trusting the library path)."""

import sys
import threading
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import etaq.arith
from etaq.arith import (
    bernoulli,
    cusp_step,
    denominator_multiplicity,
    divisors,
    factorize,
    gamma0_index,
    prime_power,
    sigma,
    sigma_range,
    sigma_table,
    totient,
    xgcd,
)


@cache
def bernoulli_oracle(limit: int) -> list[Fraction]:
    # the former arith.bernoulli, independent of the tangent numbers:
    # the defining recurrence sum_{j<=n} C(n+1, j) B_j = 0
    out = [Fraction(1)]
    for n in range(1, limit + 1):
        s = sum(comb(n + 1, j) * out[j] for j in range(n))
        out.append(Fraction(-s, n + 1))
    return out


def test_bernoulli_against_recurrence_oracle():
    oracle = bernoulli_oracle(30)
    for k in range(0, 31, 2):
        assert bernoulli(k) == oracle[k]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 150), min_size=1, max_size=4))
def test_bernoulli_from_tangent_numbers_matches_recurrence(halves):
    # every even k <= 300, asked for in a drawn order
    oracle = bernoulli_oracle(300)
    for n in halves:
        assert bernoulli(2 * n) == oracle[2 * n], 2 * n


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("k", [-2, 1, 3, 7])
def test_bernoulli_domain_errors(k):
    with pytest.raises(ValueError):
        bernoulli(k)


def test_sigma_by_divisor_enumeration():
    for n in range(1, 60):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        for power in (0, 1, 3, 5):
            assert sigma(power, n) == sum(d**power for d in divs)


def test_sigma_examples_and_errors():
    assert sigma(1, 1) == 1
    assert sigma(1, 6) == 12
    assert sigma(3, 4) == 73
    with pytest.raises(ValueError):
        sigma(1, 0)
    with pytest.raises(ValueError):
        sigma(1, -5)


def test_sigma_range_matches_pointwise():
    table = sigma_range(3, 50)
    assert table[0] == 0
    for n in range(1, 51):
        assert table[n] == sigma(3, n)


def test_sigma_table_is_shared_and_grows(monkeypatch):
    monkeypatch.setattr(etaq.arith, "_sigma_tables", {})
    table = sigma_table(3, 30)
    assert table == tuple(sigma_range(3, 30))
    assert sigma_table(3, 30) is table and sigma_table(3, 7) is table
    grown = sigma_table(3, 31)
    assert grown == tuple(sigma_range(3, 62))
    assert sigma_table(3, 45) is grown
    assert sigma_table(3, 200) == tuple(sigma_range(3, 200))
    assert sigma_table(5, 0) == (0,)


def test_sigma_table_under_concurrent_growth(monkeypatch):
    monkeypatch.setattr(etaq.arith, "_sigma_tables", {})
    reference = sigma_range(2, 400)
    bad = []

    def worker(seed):
        for limit in range(seed, 400, 7):
            table = sigma_table(2, limit)
            if list(table[: limit + 1]) != reference[: limit + 1]:
                bad.append(limit)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not bad


def test_divisors_and_factorize():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert prime_power(1) == (1, 0)
    assert prime_power(49) == (7, 2)
    assert prime_power(12) is None


def test_totient():
    assert [totient(n) for n in (1, 2, 4, 9, 16, 12)] == [1, 1, 2, 6, 8, 4]


def test_gamma0_index_counts_projective_line():
    # [SL2(Z) : Gamma0(N)] = |P^1(Z/N)|: pairs (c, d) mod N with
    # gcd(c, d, N) = 1, up to the phi(N) units
    assert [gamma0_index(n) for n in (1, 2, 3, 4, 6, 12, 16, 27)] == [1, 3, 4, 6, 12, 24, 24, 36]
    for n in range(1, 61):
        pairs = sum(1 for c in range(n) for d in range(n) if gcd(gcd(c, d), n) == 1)
        assert gamma0_index(n) * totient(n) == pairs, n


def test_gamma0_index_is_the_sum_of_cusp_widths():
    # mu(N) = sum_{c | N} phi(gcd(c, N/c)) N / gcd(c^2, N): the cusps with
    # denominator c, each of width N / gcd(c^2, N), tile the index
    for n in range(1, 2001):
        widths = sum(denominator_multiplicity(n, c) * n // gcd(c * c, n) for c in divisors(n))
        assert gamma0_index(n) == widths, n
    with pytest.raises(ValueError):
        denominator_multiplicity(12, 5)


@given(st.integers(-500, 500), st.integers(-500, 500))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert a * x + b * y == g


def test_cusp_step_is_an_integer():
    # gcd(c, t)^2 N / (t gcd(c^2, N)) has no remainder for every c, t | N:
    # E_k(tz) lives on whole steps of the local variable at a/c, and
    # 24 times the order of eta(tz) there is an integer
    for n in range(1, 401):
        divs = divisors(n)
        for c in divs:
            for t in divs:
                whole = gcd(c, t) ** 2 * n
                assert whole % (t * gcd(c * c, n)) == 0, (n, c, t)
                assert cusp_step(n, c, t) == whole // (t * gcd(c * c, n))
    assert [cusp_step(4, c, t) for t in (1, 2, 4) for c in (1, 2, 4)] == [4, 1, 1, 2, 2, 2, 1, 1, 4]


def test_root_of_unity_order_at_a_cusp_is_level_over_denominator():
    # lcm over t | N of t / gcd(t, c) is N / c for every c | N: each term
    # divides N / c, and t = N attains it.  cusps._cusp_map takes the
    # cyclotomic order of the coefficients at a/c from this identity
    for n in range(1, 2001):
        divs = divisors(n)
        for c in divs:
            assert lcm(*(t // gcd(t, c) for t in divs)) == n // c, (n, c)
