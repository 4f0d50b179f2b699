import gc
import math
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon_subsets import (
    MemoCache,
    build_sieve,
    coprime_subsets,
    factorize,
    MenonParams,
    evaluate,
    menon_classic,
    menon_sum,
    relprime_subsets,
)
import menon_subsets.menon as menon_mod
from menon_subsets.counts import floor_vectors, vector_count
from menon_subsets.menon import divisor_pairs
from menon_subsets.oracle import (enumerate_menon_sum, gcd_class_menon_sum,
                                  prime_power_menon_sum, residue_menon_sum)

# Frozen from the bitmask enumeration oracle; index i holds n = i + 1.
MBAR = (1, 4, 16, 46, 134, 320, 822, 1898, 4414, 9844, 22106, 48208,
        105522, 227364)
MBAR_2 = (0, 2, 9, 20, 46, 66, 123, 170, 251, 316, 465, 544, 762, 894)
MBAR_3 = (0, 0, 3, 16, 50, 114, 239, 416, 715, 1092, 1705, 2352, 3430, 4558)

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)
POWER_SIEVE = build_sieve(256)  # the prime-power identity reads phi, mu and primality here


def weighted_count(weights, n, k, cache):
    """The count core's sum of w * F(q) over the weights {q: w} on floor values q of n."""
    big, small = floor_vectors(n)
    for q, w in weights.items():
        vector, i = (small, q) if q < len(small) else (big, n // q)
        vector[i] += w
    return vector_count(big, small, factorize(n), k, cache)


def test_classic_small_values():
    assert menon_classic(1) == 1
    assert menon_classic(4) == 6  # (0,4) + (2,4) over a in {1, 3}
    assert menon_classic(12) == 24


def test_classic_product_equals_direct_sum():
    for n in range(1, 241):
        assert menon_classic(n) == residue_menon_sum(n)


def test_known_values():
    cache = MemoCache()
    assert [menon_sum(n, cache=cache) for n in range(1, 15)] == list(MBAR)
    assert [menon_sum(n, 2, cache) for n in range(1, 15)] == list(MBAR_2)
    assert [menon_sum(n, 3, cache) for n in range(1, 15)] == list(MBAR_3)


def test_reduces_to_classic_at_k1():
    cache = MemoCache()
    for n in range(1, 241):
        assert menon_sum(n, 1, cache) == menon_classic(n)


def test_full_set_diagonal():
    cache = MemoCache()
    for n in range(1, 21):
        assert menon_sum(n, n, cache) == n


def test_k_beyond_n_is_zero():
    assert menon_sum(4, 9) == 0


def test_cardinality_partition():
    cache = MemoCache()
    for n in range(1, 17):
        total = sum(menon_sum(n, k, cache) for k in range(1, n + 1))
        assert total == menon_sum(n, cache=cache)


# The paper's prime-power identity, oracle.prime_power_menon_sum, at n = p^t.
def test_prime_power_examples():
    cache = MemoCache()
    assert prime_power_menon_sum(2, 1, POWER_SIEVE, cache=cache) == 4
    assert prime_power_menon_sum(2, 2, POWER_SIEVE, cache=cache) == 46
    assert prime_power_menon_sum(3, 2, POWER_SIEVE, cache=cache) == menon_sum(9)


def test_prime_power_matches_general():
    cache = MemoCache()
    for p in PRIMES_TO_13:
        t = 1
        while p**t <= 256:
            n = p**t
            assert prime_power_menon_sum(p, t, POWER_SIEVE, cache=cache) == menon_sum(n)
            for k in (1, 2, 3):
                assert prime_power_menon_sum(p, t, POWER_SIEVE, k, cache) == menon_sum(n, k)
            t += 1


def test_prime_form_examples():
    cache = MemoCache()
    assert prime_power_menon_sum(3, 1, POWER_SIEVE, cache=cache) == 16   # 3*5 - 1 + 1 + 1
    assert prime_power_menon_sum(5, 1, POWER_SIEVE, cache=cache) == 134
    assert prime_power_menon_sum(3, 1, POWER_SIEVE, 2, cache) == 9  # 3*3 - 0 + 0 + 0


def test_prime_form_matches_prime_power_form():
    # At t = 1 the identity is (p - 1) * F(p) + Phi_k(p).
    cache = MemoCache()
    for p in PRIMES_TO_13:
        for k in (None, 1, 2, 3):
            assert prime_power_menon_sum(p, 1, POWER_SIEVE, k, cache) == \
                (p - 1) * relprime_subsets(p, k) + coprime_subsets(p, k)


def test_k1_prime_power_is_classic():
    assert prime_power_menon_sum(3, 2, POWER_SIEVE, 1) == 18  # phi(9) * tau(9)
    for p, t in ((2, 3), (5, 2), (7, 1)):
        assert prime_power_menon_sum(p, t, POWER_SIEVE, 1) == menon_classic(p**t)


def test_specializations_reject_nonprime():
    # A non-prime p, t < 1, or p^t past the sieve.
    for p, t in ((4, 1), (6, 2), (9, 1), (1, 1), (1, 9), (2, 0), (2, -1), (2, 9), (3, 6),
                 (257, 1), (2, 10**9)):
        with pytest.raises(ValueError):
            prime_power_menon_sum(p, t, POWER_SIEVE)
    with pytest.raises(ValueError):
        prime_power_menon_sum(2, 1, POWER_SIEVE, 0)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        menon_sum(0)
    with pytest.raises(ValueError):
        menon_sum(5, 0)
    with pytest.raises(ValueError):
        menon_classic(0)


def test_matches_gcd_class_oracle(sieve):
    cache = MemoCache()
    for n in range(1, 201):
        assert menon_sum(n, cache=cache) == gcd_class_menon_sum(n, sieve, cache=cache)


def test_params_validation():
    with pytest.raises(ValueError):
        MenonParams(n=0)
    with pytest.raises(ValueError):
        MenonParams(n=5, k=0)
    with pytest.raises(TypeError):
        MenonParams(n=8, strategy="prime-power")  # no route to choose: one field less


def test_shared_cache_is_reused():
    cache = MemoCache()
    first = menon_sum(30, cache=cache)
    misses = cache.misses
    second = menon_sum(30, cache=cache)
    assert first == second
    # No rows F(1..29): each call takes the adjoint pass and caches nothing.
    assert (cache.hits, cache.misses, len(cache)) == (0, 2 * misses, 0)
    for n in range(1, 31):  # a sweep from 1 leaves the rows F(1..30)
        menon_sum(n, cache=cache)
    misses = cache.misses
    assert menon_sum(30, cache=cache) == first
    assert cache.misses == misses  # third run served entirely from the cache
    assert cache.hits == 1


@pytest.mark.parametrize("gcd_sum", [
    menon_sum,
    lambda n, k=None: prime_power_menon_sum(n, 1, POWER_SIEVE, k),
])
@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_gcd_sums_reject_non_integer_n_and_k(gcd_sum, bad):
    with pytest.raises(TypeError):
        gcd_sum(bad)
    with pytest.raises(TypeError):
        gcd_sum(7, bad)


@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_prime_power_rejects_non_integer_exponent(bad):
    with pytest.raises(TypeError):
        prime_power_menon_sum(2, bad, POWER_SIEVE)


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


# Property inputs up to 3000, biased toward the shapes that stress the
# triple sum differently: prime powers (only the (p^s, 1) pairs), squarefree
# n (every delta survives) and highly composite n (the most divisor pairs).
N_MAX = 3000
BIG_SIEVE = build_sieve(N_MAX)
PRIME_POWERS = [n for n in range(2, N_MAX + 1) if len(factorize(n).factors) == 1]
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
    got = evaluate(MenonParams(n, k), MemoCache())
    assert got == gcd_class_menon_sum(n, BIG_SIEVE, k, oracle_cache)


@settings(deadline=None)
@given(SHAPED_N)
def test_singleton_sum_is_phi_times_tau(n):
    expected = BIG_SIEVE.phi[n] * sum(1 for d in range(1, n + 1) if n % d == 0)
    assert evaluate(MenonParams(n, 1)) == expected


def test_divisor_pairs_are_the_filtered_double_loop():
    # The pairs built prime by prime are exactly the (divisor, squarefree
    # divisor) pairs with gcd 1, each once, with the weight phi(d) * mu(delta).
    for n in range(1, 3001):
        fac = factorize(n)
        filtered = sorted(
            (d, delta, phi_d * mu_delta)
            for d, phi_d in fac.totients().items()
            for delta, mu_delta in fac.mobius().items()
            if gcd(d, delta) == 1
        )
        pairs = divisor_pairs(fac)
        assert sorted(pairs) == filtered
        assert len(pairs) == math.prod(e + 2 for _, e in fac.factors)


@st.composite
def seeded_queries(draw):
    """(n, smaller n evaluated first, k): a random set, or every m < n."""
    n = draw(st.integers(1, 300))
    smaller = st.sets(st.integers(1, n - 1), max_size=20) if n > 1 else st.just(set())
    seeds = draw(st.one_of(smaller, st.just(set(range(1, n)))))
    return n, sorted(seeds), draw(st.sampled_from((None, 1, 2, 3)))


@settings(max_examples=40, deadline=None)
@given(seeded_queries())
def test_preseeded_cache_matches_cold_calls(query):
    # A warm cache takes the prefix route when its rows reach F(n-1) (the
    # seeds were every m < n, or every m from k on) and the adjoint pass
    # otherwise; both must match a cold call.  A row costs one miss, the
    # adjoint pass one per floor value of n, and neither moves the hits.
    n, seeds, k = query

    def seeded():
        cache = MemoCache()
        for m in seeds:
            evaluate(MenonParams(m, k), cache)
        return cache

    cache = seeded()
    rows = cache.table(("prefix", k))
    first = min(rows, default=k if n == k else 1)  # F(m) = 0 below k
    row = first + len(rows) == n
    hits, misses = cache.hits, cache.misses
    assert relprime_subsets(n, k, cache) == relprime_subsets(n, k)
    computed = 1 if row else len({n // t for t in range(1, n + 1)})
    assert cache.hits == hits
    assert cache.misses == misses + computed
    assert menon_sum(n, k, seeded()) == menon_sum(n, k)
    assert evaluate(MenonParams(n, k), seeded()) == evaluate(MenonParams(n, k))


def test_hot_path_leaves_no_reference_cycles():
    # Every object the evaluation creates is freed by reference counting, so
    # repeated calls do not pile work (and memory) up for the cyclic GC.
    gc.collect()
    gc.disable()
    try:
        for k in (None, 2):
            for n in (55440, 48090, 65536, 65521):
                evaluate(MenonParams(n, k), MemoCache())
            relprime_subsets(5000, k)
            relprime_subsets(5000, k, MemoCache())
            sweep = MemoCache()
            for n in range(1, 60):
                evaluate(MenonParams(n, k), sweep)
                relprime_subsets(n, k, sweep)
        assert gc.collect() == 0
    finally:
        gc.enable()


def dict_progression(weights, N, first, step, last, w):
    """Add w * #{j <= last : j = first (mod step), N // j = q} to weights[q].

    The dict weight pass the t-indexed lists replaced, kept as their
    reference: it jumps from member to member one block of constant N // j
    at a time.
    """
    j = first
    while j <= last:
        q = N // j
        hi = N // q
        count = ((hi if hi < last else last) - j) // step + 1
        weights[q] = weights.get(q, 0) + w * count
        j += count * step


def walked_weights(n, with_layer=True):
    """Weights of the triple sum with every prod(e + 2) triple walked, d = 1 included.

    The route the closed-form d = 1 layer replaced, kept as its reference;
    the weights do not depend on k.  with_layer=False walks only d > 1.
    """
    weights = {}
    for d, delta, w in divisor_pairs(factorize(n)):
        if with_layer or d > 1:
            first = pow(delta, -1, d) if d > 1 else 1
            dict_progression(weights, n // delta, first, d, n // delta, w)
    return weights


def list_weights(n):
    """The nonzero weights {q: w} the list weight pass hands to the count core."""
    seen = []

    def record(big, small, fac, k, cache):
        seen.append({**{fac.n // u: w for u, w in enumerate(big) if w},
                     **{q: w for q, w in enumerate(small) if w}})
        return 0

    with mock.patch.object(menon_mod, "vector_count", record):
        evaluate(MenonParams(n))
    return seen.pop()


def assert_list_pass_matches_dict_walk(n):
    walked = {q: w for q, w in walked_weights(n, with_layer=False).items() if w}
    assert list_weights(n) == walked, n


def test_list_weight_pass_matches_the_dict_walk():
    for n in range(1, 3001):
        assert_list_pass_matches_dict_walk(n)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 10**7),
                 st.sampled_from((9699690, 7207200, 8648640, 9765625, 8388608, 9999991))))
def test_list_weight_pass_matches_the_dict_walk_up_to_ten_million(n):
    assert_list_pass_matches_dict_walk(n)


def assert_layer_matches_walk(n_max, cache):
    # menon_sum against the walked triple sum, for k in {None, 1, 2, 3};
    # one shared cache, or None.
    for n in range(1, n_max + 1):
        weights = walked_weights(n)
        for k in (None, 1, 2, 3):
            got = menon_sum(n, k, cache)  # first, so a sweep appends its rows
            assert got == weighted_count(weights, n, k, cache), (n, k)


def test_closed_form_layer_matches_the_walked_layer_cold():
    assert_layer_matches_walk(1000, None)


def test_closed_form_layer_matches_the_walked_layer_in_a_sweep():
    assert_layer_matches_walk(3000, MemoCache())


def test_remainder_over_the_layer_is_the_excess_gcd_sum():
    # menon_sum - Phi_k(n) sums gcd(gcd(A) - 1, n) - 1 over the subsets A:
    # what the weight pass and the core's guard now see, never negative.
    for n in range(1, 15):
        for k in (None, *range(1, n + 2)):
            brute = enumerate_menon_sum(n, k)
            remainder = menon_sum(n, k) - coprime_subsets(n, k)
            assert remainder == brute.total - brute.count >= 0, (n, k)
