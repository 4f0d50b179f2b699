import gc
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon_subsets import (
    AUTO,
    PRIME_POWER,
    THEOREM,
    MemoCache,
    build_sieve,
    coprime_subsets,
    divisors,
    factorize,
    gcd,
    MenonParams,
    evaluate,
    is_prime,
    menon_classic,
    menon_sum,
    menon_sum_prime,
    menon_sum_prime_power,
    prime_power_split,
    relprime_subsets,
)
import menon_subsets.menon as menon_mod
from menon_subsets.counts import weighted_count
from menon_subsets.menon import divisor_pairs
from menon_subsets.oracle import enumerate_menon_sum, gcd_class_menon_sum, residue_menon_sum

# Frozen from the bitmask enumeration oracle; index i holds n = i + 1.
MBAR = (1, 4, 16, 46, 134, 320, 822, 1898, 4414, 9844, 22106, 48208,
        105522, 227364)
MBAR_2 = (0, 2, 9, 20, 46, 66, 123, 170, 251, 316, 465, 544, 762, 894)
MBAR_3 = (0, 0, 3, 16, 50, 114, 239, 416, 715, 1092, 1705, 2352, 3430, 4558)

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


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


def test_prime_power_examples():
    cache = MemoCache()
    assert menon_sum_prime_power(2, 1, cache=cache) == 4
    assert menon_sum_prime_power(2, 2, cache=cache) == 46
    assert menon_sum_prime_power(3, 2, cache=cache) == menon_sum(9, cache=cache)


def test_prime_power_matches_general():
    cache = MemoCache()
    for p in PRIMES_TO_13:
        t = 1
        while p**t <= 256:
            n = p**t
            assert menon_sum_prime_power(p, t, cache=cache) == \
                menon_sum(n, cache=cache)
            for k in (1, 2, 3):
                assert menon_sum_prime_power(p, t, k, cache) == \
                    menon_sum(n, k, cache)
            t += 1


def test_prime_form_examples():
    cache = MemoCache()
    assert menon_sum_prime(3, cache=cache) == 16   # 3*5 - 1 + 1 + 1
    assert menon_sum_prime(5, cache=cache) == 134
    assert menon_sum_prime(3, 2, cache) == 9  # 3*3 - 0 + 0 + 0


def test_prime_form_matches_prime_power_form():
    cache = MemoCache()
    for p in PRIMES_TO_13:
        assert menon_sum_prime(p, cache=cache) == \
            menon_sum_prime_power(p, 1, cache=cache)
        for k in (1, 2, 3):
            assert menon_sum_prime(p, k, cache) == \
                menon_sum_prime_power(p, 1, k, cache)


def test_k1_prime_power_is_classic():
    assert menon_sum_prime_power(3, 2, 1) == 18  # phi(9) * tau(9)
    for p, t in ((2, 3), (5, 2), (7, 1)):
        assert menon_sum_prime_power(p, t, 1) == \
            menon_classic(p**t)


def test_specializations_reject_nonprime():
    with pytest.raises(ValueError):
        menon_sum_prime(4)
    with pytest.raises(ValueError):
        menon_sum_prime_power(6, 2)
    with pytest.raises(ValueError):
        menon_sum_prime(9, 2)
    with pytest.raises(ValueError):
        menon_sum_prime_power(1, 1, 2)
    with pytest.raises(ValueError):
        menon_sum_prime_power(2, 0)


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


def test_evaluate_dispatch():
    cache = MemoCache()
    for n in range(1, 65):
        via_auto = evaluate(MenonParams(n=n, strategy=AUTO), cache)
        via_theorem = evaluate(MenonParams(n=n, strategy=THEOREM), cache)
        assert via_auto == via_theorem == menon_sum(n, cache=cache)
    for n in (8, 27, 64, 121):
        assert evaluate(MenonParams(n=n, strategy=PRIME_POWER), cache) == \
            menon_sum(n, cache=cache)
    for n, k in ((16, 2), (25, 3)):
        assert evaluate(MenonParams(n=n, k=k, strategy=PRIME_POWER), cache) == \
            menon_sum(n, k, cache)


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
    menon_sum_prime,
    lambda n, k=None: menon_sum_prime_power(n, 1, k),
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
        menon_sum_prime_power(2, bad)


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
    got = evaluate(MenonParams(n, k), MemoCache())
    assert got == gcd_class_menon_sum(n, BIG_SIEVE, k, oracle_cache)


@settings(deadline=None)
@given(SHAPED_N)
def test_singleton_sum_is_phi_times_tau(n):
    expected = BIG_SIEVE.phi[n] * len(divisors(n))
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


def list_weights(n, strategy):
    """The nonzero weights {q: w} the list weight pass hands to the count core."""
    seen = []

    def record(big, small, fac, k, cache):
        seen.append({**{fac.n // u: w for u, w in enumerate(big) if w},
                     **{q: w for q, w in enumerate(small) if w}})
        return 0

    with mock.patch.object(menon_mod, "vector_count", record):
        evaluate(MenonParams(n, None, strategy))
    return seen.pop()


def assert_list_pass_matches_dict_walk(n):
    walked = {q: w for q, w in walked_weights(n, with_layer=False).items() if w}
    assert list_weights(n, THEOREM) == walked, n
    if prime_power_split(n) is not None:
        assert list_weights(n, PRIME_POWER) == walked, n


def test_list_weight_pass_matches_the_dict_walk():
    for n in range(1, 3001):
        assert_list_pass_matches_dict_walk(n)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 10**7),
                 st.sampled_from((9699690, 7207200, 8648640, 9765625, 8388608, 9999991))))
def test_list_weight_pass_matches_the_dict_walk_up_to_ten_million(n):
    assert_list_pass_matches_dict_walk(n)


def assert_layer_matches_walk(n_max, cache):
    # menon_sum, and the collapsed forms at prime powers, against the walked
    # triple sum, for k in {None, 1, 2, 3}; one shared cache, or None.
    for n in range(1, n_max + 1):
        weights = walked_weights(n)
        split = prime_power_split(n)
        for k in (None, 1, 2, 3):
            got = menon_sum(n, k, cache)  # first, so a sweep appends its rows
            assert got == weighted_count(weights, n, k, cache), (n, k)
            if split is not None:
                p, t = split
                assert menon_sum_prime_power(p, t, k, cache) == got, (n, k)
                if t == 1:
                    assert menon_sum_prime(p, k, cache) == got, (n, k)


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
