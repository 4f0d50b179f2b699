import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon_subsets import (
    AUTO,
    PRIME_POWER,
    THEOREM,
    MemoCache,
    build_sieve,
    divisors,
    MenonParams,
    evaluate,
    is_prime,
    menon_classic,
    menon_sum,
    menon_sum_k,
    menon_sum_k_prime,
    menon_sum_k_prime_power,
    menon_sum_prime,
    menon_sum_prime_power,
    prime_power_split,
)
from menon_subsets.oracle import gcd_class_menon_sum, gcd_class_menon_sum_k

# Frozen from the bitmask enumeration oracle; index i holds n = i + 1.
MBAR = (1, 4, 16, 46, 134, 320, 822, 1898, 4414, 9844, 22106, 48208,
        105522, 227364)
MBAR_2 = (0, 2, 9, 20, 46, 66, 123, 170, 251, 316, 465, 544, 762, 894)
MBAR_3 = (0, 0, 3, 16, 50, 114, 239, 416, 715, 1092, 1705, 2352, 3430, 4558)

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def test_classic_small_values(sieve):
    assert menon_classic(1, sieve) == 1
    assert menon_classic(4, sieve) == 6  # (0,4) + (2,4) over a in {1, 3}
    assert menon_classic(12, sieve) == 24


def test_classic_product_equals_direct_sum(sieve):
    for n in range(1, 241):
        assert menon_classic(n, sieve) == menon_classic(n, sieve, direct_sum=True)


def test_known_values(sieve):
    cache = MemoCache()
    assert [menon_sum(n, sieve, cache) for n in range(1, 15)] == list(MBAR)
    assert [menon_sum_k(n, 2, sieve, cache) for n in range(1, 15)] == list(MBAR_2)
    assert [menon_sum_k(n, 3, sieve, cache) for n in range(1, 15)] == list(MBAR_3)


def test_reduces_to_classic_at_k1(sieve):
    cache = MemoCache()
    for n in range(1, 241):
        assert menon_sum_k(n, 1, sieve, cache) == menon_classic(n, sieve)


def test_full_set_diagonal(sieve):
    cache = MemoCache()
    for n in range(1, 21):
        assert menon_sum_k(n, n, sieve, cache) == n


def test_k_beyond_n_is_zero(sieve):
    assert menon_sum_k(4, 9, sieve) == 0


def test_cardinality_partition(sieve):
    cache = MemoCache()
    for n in range(1, 17):
        total = sum(menon_sum_k(n, k, sieve, cache) for k in range(1, n + 1))
        assert total == menon_sum(n, sieve, cache)


def test_prime_power_examples(sieve):
    cache = MemoCache()
    assert menon_sum_prime_power(2, 1, sieve, cache) == 4
    assert menon_sum_prime_power(2, 2, sieve, cache) == 46
    assert menon_sum_prime_power(3, 2, sieve, cache) == menon_sum(9, sieve, cache)


def test_prime_power_matches_general(sieve):
    cache = MemoCache()
    for p in PRIMES_TO_13:
        t = 1
        while p**t <= 256:
            n = p**t
            assert menon_sum_prime_power(p, t, sieve, cache) == \
                menon_sum(n, sieve, cache)
            for k in (1, 2, 3):
                assert menon_sum_k_prime_power(p, t, k, sieve, cache) == \
                    menon_sum_k(n, k, sieve, cache)
            t += 1


def test_prime_form_examples(sieve):
    cache = MemoCache()
    assert menon_sum_prime(3, sieve, cache) == 16   # 3*5 - 1 + 1 + 1
    assert menon_sum_prime(5, sieve, cache) == 134
    assert menon_sum_k_prime(3, 2, sieve, cache) == 9  # 3*3 - 0 + 0 + 0


def test_prime_form_matches_prime_power_form(sieve):
    cache = MemoCache()
    for p in PRIMES_TO_13:
        assert menon_sum_prime(p, sieve, cache) == \
            menon_sum_prime_power(p, 1, sieve, cache)
        for k in (1, 2, 3):
            assert menon_sum_k_prime(p, k, sieve, cache) == \
                menon_sum_k_prime_power(p, 1, k, sieve, cache)


def test_k1_prime_power_is_classic(sieve):
    assert menon_sum_k_prime_power(3, 2, 1, sieve) == 18  # phi(9) * tau(9)
    for p, t in ((2, 3), (5, 2), (7, 1)):
        assert menon_sum_k_prime_power(p, t, 1, sieve) == \
            menon_classic(p**t, sieve)


def test_specializations_reject_nonprime(sieve):
    with pytest.raises(ValueError):
        menon_sum_prime(4, sieve)
    with pytest.raises(ValueError):
        menon_sum_prime_power(6, 2, sieve)
    with pytest.raises(ValueError):
        menon_sum_k_prime(9, 2, sieve)
    with pytest.raises(ValueError):
        menon_sum_k_prime_power(1, 1, 2, sieve)
    with pytest.raises(ValueError):
        menon_sum_prime_power(2, 0, sieve)


def test_rejects_bad_arguments(sieve):
    with pytest.raises(ValueError):
        menon_sum(0, sieve)
    with pytest.raises(ValueError):
        menon_sum_k(5, 0, sieve)
    with pytest.raises(ValueError):
        menon_classic(0, sieve)


def test_matches_gcd_class_oracle(sieve):
    cache = MemoCache()
    for n in range(1, 201):
        assert menon_sum(n, sieve, cache) == gcd_class_menon_sum(n, sieve, cache)


def test_is_prime_small():
    assert [n for n in range(60) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(97) == (97, 1)
    assert prime_power_split(1) is None
    assert prime_power_split(12) is None
    assert prime_power_split(36) is None


def test_params_validation():
    with pytest.raises(ValueError):
        MenonParams(n=0)
    with pytest.raises(ValueError):
        MenonParams(n=5, k=0)
    with pytest.raises(ValueError):
        MenonParams(n=5, strategy="fastest")
    with pytest.raises(ValueError):
        MenonParams(n=6, strategy=PRIME_POWER)
    MenonParams(n=8, strategy=PRIME_POWER)  # fine: 8 = 2^3


def test_evaluate_dispatch(sieve):
    cache = MemoCache()
    for n in range(1, 65):
        via_auto = evaluate(MenonParams(n=n, strategy=AUTO), sieve, cache)
        via_theorem = evaluate(MenonParams(n=n, strategy=THEOREM), sieve, cache)
        assert via_auto == via_theorem == menon_sum(n, sieve, cache)
    for n in (8, 27, 64, 121):
        assert evaluate(MenonParams(n=n, strategy=PRIME_POWER), sieve, cache) == \
            menon_sum(n, sieve, cache)
    for n, k in ((16, 2), (25, 3)):
        assert evaluate(MenonParams(n=n, k=k, strategy=PRIME_POWER), sieve, cache) == \
            menon_sum_k(n, k, sieve, cache)


def test_shared_cache_is_reused(sieve):
    cache = MemoCache()
    first = menon_sum(30, sieve, cache)
    misses = cache.misses
    second = menon_sum(30, sieve, cache)
    assert first == second
    assert cache.misses == misses  # second run served entirely from the cache


@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_params_reject_non_integer_n(bad):
    with pytest.raises(TypeError):
        MenonParams(n=bad)


@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_params_reject_non_integer_k(bad):
    with pytest.raises(TypeError):
        MenonParams(n=6, k=bad)


def test_params_keep_plain_ints():
    params = MenonParams(n=12, k=2)
    assert (params.n, params.k) == (12, 2)
    assert type(params.n) is int and type(params.k) is int


# Property inputs up to 3000, biased toward the shapes that stress the two
# routes differently: prime powers (collapsed route), squarefree n (every
# delta survives) and highly composite n (the most divisor pairs).
N_MAX = 3000
BIG_SIEVE = build_sieve(N_MAX)
PRIME_POWERS = [n for n in range(2, N_MAX + 1) if prime_power_split(n) is not None]
SQUAREFREE = [n for n in range(2, N_MAX + 1) if BIG_SIEVE.mu[n] != 0]
HIGHLY_COMPOSITE = (12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260, 1680, 2520)
SHAPED_N = st.one_of(
    st.integers(1, N_MAX),
    st.sampled_from(PRIME_POWERS),
    st.sampled_from(SQUAREFREE),
    st.sampled_from(HIGHLY_COMPOSITE),
)


@pytest.fixture(scope="module")
def oracle_cache():
    return MemoCache()


@settings(max_examples=60, deadline=None)
@given(SHAPED_N, st.sampled_from((None, 1, 2, 3)))
def test_evaluate_matches_gcd_class_oracle(oracle_cache, n, k):
    got = evaluate(MenonParams(n, k), BIG_SIEVE, MemoCache())
    if k is None:
        expected = gcd_class_menon_sum(n, BIG_SIEVE, oracle_cache)
    else:
        expected = gcd_class_menon_sum_k(n, k, BIG_SIEVE, oracle_cache)
    assert got == expected


@settings(deadline=None)
@given(SHAPED_N)
def test_singleton_sum_is_phi_times_tau(n):
    expected = BIG_SIEVE.phi[n] * len(divisors(n))
    assert evaluate(MenonParams(n, 1), BIG_SIEVE) == expected
