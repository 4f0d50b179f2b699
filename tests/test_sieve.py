import math
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from menon_subsets import build_sieve, factorize


def divisors(n):
    """The divisors of n as Factorization.totients enumerates them, ascending."""
    return list(factorize(n).totients())


def is_prime(n):
    """Trial division, independent of factorize."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_smallest_table():
    tables = build_sieve(1)
    assert tables.mu[1:] == [1]
    assert tables.phi[1:] == [1]


def test_first_six_values():
    tables = build_sieve(6)
    assert tables.mu[1:] == [1, -1, -1, 0, -1, 1]
    assert tables.phi[1:] == [1, 1, 2, 2, 4, 2]


def test_zero_limit_rejected():
    with pytest.raises(ValueError):
        build_sieve(0)


def test_mu_range(sieve):
    assert all(sieve.mu[n] in (-1, 0, 1) for n in range(1, sieve.limit + 1))


def test_totient_divisor_sum_rebuilds_n(sieve):
    for n in range(1, sieve.limit + 1):
        assert sum(sieve.phi[d] for d in divisors(n)) == n


def test_mobius_divisor_sum_vanishes(sieve):
    for n in range(1, sieve.limit + 1):
        total = sum(sieve.mu[d] for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_totient_matches_coprime_count(sieve):
    for n in range(1, sieve.limit + 1):
        assert sieve.phi[n] == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_factorize_matches_sieve_tables_and_naive_scan(sieve):
    for n in range(1, sieve.limit + 1):
        fac = factorize(n)
        naive = [d for d in range(1, n + 1) if n % d == 0]
        assert math.prod(p**e for p, e in fac.factors) == n
        assert all(is_prime(p) and e >= 1 for p, e in fac.factors)
        assert fac.phi == sieve.phi[n]
        assert fac.tau == len(naive)
        assert divisors(n) == naive
        assert fac.totients() == {d: sieve.phi[d] for d in naive}
        assert fac.mobius() == {d: sieve.mu[d] for d in naive if sieve.mu[d]}


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2 * 10007).factors == ((2, 1), (10007, 1))
    with pytest.raises(ValueError):
        factorize(0)
    for bad in (True, 2.0, "3"):
        with pytest.raises(TypeError):
            factorize(bad)


@given(st.integers(1, 10**6))
def test_prime_views_agree_with_factorize(n):
    # factorize's view of n (prime, prime power) against trial division.
    factors = factorize(n).factors
    assert (factors == ((n, 1),)) == is_prime(n)
    if len(factors) == 1:
        (p, e), = factors
        assert is_prime(p) and p**e == n


def test_mertens_prefix(sieve):
    assert sieve.mertens[0] == 0
    assert sieve.mertens[1] == 1
    running = 0
    for n in range(1, sieve.limit + 1):
        running += sieve.mu[n]
        assert sieve.mertens[n] == running


def test_gcd_conventions():
    assert gcd(0, 4) == 4
    assert gcd(4, 0) == 4
    assert gcd(0, 0) == 0
    assert gcd(12, 18) == 6


@given(st.integers(1, 10**9))
def test_gcd_with_one(n):
    assert gcd(1, n) == 1


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_gcd_commutes_and_divides(a, b):
    g = gcd(a, b)
    assert g == gcd(b, a)
    if g == 0:
        assert a == 0 and b == 0
    else:
        assert a % g == 0 and b % g == 0


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_gcd_folds_associatively(a, b, c):
    assert gcd(gcd(a, b), c) == gcd(a, gcd(b, c))


def test_divisors_basics():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert len(divisors(12)) == 6
    with pytest.raises(ValueError):
        divisors(0)


@pytest.mark.parametrize("n", [1, 2, 12, 36, 97, 360, 1024])
def test_divisors_match_naive_scan(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@given(st.integers(1, 10**5))
def test_divisors_sorted_unique_and_divide(n):
    ds = divisors(n)
    assert ds == sorted(set(ds))
    assert all(n % d == 0 for d in ds)
    assert ds[0] == 1 and ds[-1] == n
