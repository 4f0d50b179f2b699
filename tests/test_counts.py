import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon_subsets import (
    MemoCache,
    binomial,
    build_sieve,
    coprime_subsets,
    floor_counts,
    relprime_subsets,
)
from menon_subsets.counts import _floor_count, _floor_values
from menon_subsets.oracle import (
    enumerate_coprime_subsets,
    enumerate_relprime_subsets,
    mobius_subset_count,
)

# Frozen from the bitmask enumeration oracle (tests/test_oracle.py exercises
# the oracle itself); index i holds the value at n = i + 1.
RELPRIME = (1, 2, 5, 11, 26, 53, 116, 236, 488, 983, 2006, 4016,
            8111, 16238, 32603, 65243, 130778, 261566)
RELPRIME_2 = (0, 1, 3, 5, 9, 11, 17, 21, 27, 31, 41, 45, 57, 63)
RELPRIME_3 = (0, 0, 1, 4, 10, 19, 34, 52, 79, 109, 154, 196, 262, 325)
COPRIME = (1, 2, 6, 12, 30, 54, 126, 240, 504, 990, 2046, 4020, 8190, 16254)
COPRIME_2 = (0, 1, 3, 5, 10, 11, 21, 22, 33, 34, 55, 46, 78, 69)
COPRIME_3 = (0, 0, 1, 4, 10, 19, 35, 52, 83, 110, 165, 196, 286, 329)


def test_relprime_known_values():
    assert [relprime_subsets(n) for n in range(1, 19)] == list(RELPRIME)


def test_relprime_pairs_known_values():
    assert [relprime_subsets(n, 2) for n in range(1, 15)] == list(RELPRIME_2)


def test_relprime_triples_known_values():
    assert [relprime_subsets(n, 3) for n in range(1, 15)] == list(RELPRIME_3)


def test_coprime_known_values():
    assert [coprime_subsets(n) for n in range(1, 15)] == list(COPRIME)


def test_coprime_k_known_values():
    assert [coprime_subsets(n, 2) for n in range(1, 15)] == list(COPRIME_2)
    assert [coprime_subsets(n, 3) for n in range(1, 15)] == list(COPRIME_3)


def test_singleton_count_is_always_one(sieve):
    assert all(relprime_subsets(n, 1) == 1 for n in range(1, sieve.limit + 1))


def test_full_set_is_the_only_n_subset():
    assert all(relprime_subsets(n, n) == 1 for n in range(1, 61))
    assert all(coprime_subsets(n, n) == 1 for n in range(1, 61))


def test_k_beyond_n_gives_zero():
    for n in (1, 2, 5, 17):
        assert relprime_subsets(n, n + 1) == 0
        assert coprime_subsets(n, n + 1) == 0
        assert relprime_subsets(n, 3 * n + 2) == 0


def test_strictly_monotone():
    previous = 0
    for n in range(1, 121):
        current = relprime_subsets(n)
        assert current > previous
        previous = current


def test_pair_count_is_totient_partial_sum(sieve):
    acc = 0
    for n in range(2, sieve.limit + 1):
        acc += sieve.phi[n]
        assert relprime_subsets(n, 2) == acc


def test_coprime_singletons_are_totient(sieve):
    assert all(coprime_subsets(n, 1) == sieve.phi[n] for n in range(1, 101))


def test_coprime_base_cases():
    assert coprime_subsets(1) == 1  # {1} alone, not the empty set
    assert coprime_subsets(2) == 2
    assert coprime_subsets(4) == 12
    assert coprime_subsets(4, 2) == 5  # of six pairs only {2,4} fails


def test_cardinality_partitions():
    for n in range(1, 61):
        assert sum(relprime_subsets(n, k) for k in range(1, n + 1)) == \
            relprime_subsets(n)
        assert sum(coprime_subsets(n, k) for k in range(1, n + 1)) == \
            coprime_subsets(n)


def test_binomial_conventions():
    assert binomial(6, 2) == 15
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1


@given(st.integers(0, 300), st.integers(0, 300))
def test_binomial_symmetry_and_pascal(a, k):
    if k <= a:
        assert binomial(a, k) == binomial(a, a - k)
    assert binomial(a + 1, k + 1) == binomial(a, k) + binomial(a, k + 1)


def test_core_matches_mobius_sum_densely(sieve):
    cache = MemoCache()
    for k in (None, 1, 2, 3, 7):
        for n in range(1, 401):
            assert relprime_subsets(n, k) == mobius_subset_count(n, sieve, k, cache)


BIG_SIEVE = build_sieve(3000)


@settings(deadline=None)
@given(st.integers(1, 3000), st.sampled_from((None, 1, 2, 3)))
def test_core_matches_mobius_sum_property(n, k):
    assert relprime_subsets(n, k) == mobius_subset_count(n, BIG_SIEVE, k)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 600), min_size=1, max_size=40),
       st.sampled_from((None, 1, 2, 3)))
def test_shared_cache_in_any_order_matches_fresh_calls(order, k):
    shared = MemoCache()
    for n in order:
        assert relprime_subsets(n, k, shared) == relprime_subsets(n, k)
        assert floor_counts(n, k, shared) == floor_counts(n, k)


def test_matches_enumeration():
    for n in range(1, 15):
        assert relprime_subsets(n) == enumerate_relprime_subsets(n)
        assert coprime_subsets(n) == enumerate_coprime_subsets(n)
        for k in {1, 2, 3, n}:
            assert relprime_subsets(n, k) == enumerate_relprime_subsets(n, k)
            assert coprime_subsets(n, k) == enumerate_coprime_subsets(n, k)


def test_cache_is_transparent():
    shared = MemoCache()
    with_cache = [relprime_subsets(n, cache=shared) for n in range(1, 101)]
    without = [relprime_subsets(n) for n in range(1, 101)]
    assert with_cache == without
    # warm lookups return the identical values
    again = [relprime_subsets(n, cache=shared) for n in range(1, 101)]
    assert again == without
    for (tag, n, *rest), value in shared.items():
        assert tag == "floor"
        assert value == relprime_subsets(n)


def test_cache_counts_hits_and_misses():
    # A miss is one floor value computed; 30 has ten: 1..5, 6, 7, 10, 15, 30.
    cache = MemoCache()
    relprime_subsets(30, 2, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (0, 10, 10)
    relprime_subsets(30, 2, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (1, 10, 10)
    relprime_subsets(30, 3, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (1, 20, 20)
    relprime_subsets(31, 3, cache=cache)  # only 31 itself is new
    assert (cache.hits, cache.misses, len(cache)) == (10, 21, 21)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        relprime_subsets(0)
    with pytest.raises(ValueError):
        relprime_subsets(5, 0)
    with pytest.raises(ValueError):
        coprime_subsets(0)
    with pytest.raises(ValueError):
        coprime_subsets(3, 0)


@pytest.mark.parametrize("count", [relprime_subsets, coprime_subsets])
@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_counts_reject_non_integer_n_and_k(count, bad):
    with pytest.raises(TypeError):
        count(bad)
    with pytest.raises(TypeError):
        count(10, bad)


@given(st.integers(1, 1200), st.sampled_from((None, 1, 2, 3, 5)))
def test_floor_counts_match_direct_counts(sieve, n, k):
    counts = floor_counts(n, k)
    assert set(counts) == {n // t for t in range(1, n + 1)}
    for q, value in counts.items():
        assert value == mobius_subset_count(q, sieve, k)


def test_floor_counts_small_cases():
    assert floor_counts(1) == {1: 1}
    assert floor_counts(6) == {1: 1, 2: 2, 3: 5, 6: 53}
    assert floor_counts(6, 2) == {1: 0, 2: 1, 3: 3, 6: 11}
    assert floor_counts(4, 9) == {1: 0, 2: 0, 4: 0}


def test_floor_counts_memoise_under_their_own_keys():
    cache = MemoCache()
    first = floor_counts(30, cache=cache)
    assert cache.misses == len(first)
    assert {key for key, _ in cache.items()} == {("floor", q, None) for q in first}
    assert floor_counts(30, cache=cache) == first
    assert cache.misses == len(first)  # the second call only hit
    assert floor_counts(15, 2, cache=cache) == floor_counts(15, 2)


@pytest.mark.parametrize("bad", [True, 2.0, "3", None])
def test_floor_counts_reject_non_integer_n(bad):
    with pytest.raises(TypeError):
        floor_counts(bad)


@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_floor_counts_reject_non_integer_k(bad):
    with pytest.raises(TypeError):
        floor_counts(10, bad)


def test_floor_counts_reject_out_of_range():
    with pytest.raises(ValueError):
        floor_counts(0)
    with pytest.raises(ValueError):
        floor_counts(5, 0)


def test_floor_count_is_the_number_of_floor_values():
    assert all(_floor_count(n) == len(_floor_values(n)) for n in range(1, 100_001))


@given(st.integers(1, 10**9))
def test_floor_count_property(n):
    assert _floor_count(n) == len(_floor_values(n)) == len(set(_floor_values(n)))
