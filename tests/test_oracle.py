import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon_subsets import (
    MemoCache,
    build_sieve,
    coprime_subsets,
    menon_sum,
    relprime_subsets,
)
from menon_subsets.oracle import (
    _subset_gcds,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    mobius_subset_count,
    subset_gcd_histogram,
)


def test_relprime_enumeration_values():
    assert enumerate_relprime_subsets(1) == 1
    assert enumerate_relprime_subsets(6) == 53
    assert enumerate_relprime_subsets(6, 2) == 11


def test_coprime_enumeration_values():
    assert enumerate_coprime_subsets(1) == 1
    assert enumerate_coprime_subsets(4) == 12
    for n in range(1, 13):
        phi = sum(1 for a in range(1, n + 1)
                  if all((a % p or n % p) for p in range(2, n + 1)))
        # phi via a second tiny brute force: a is counted iff no p divides both
        assert enumerate_coprime_subsets(n, 1) == phi


def test_menon_sum_enumeration():
    result = enumerate_menon_sum(2)
    assert (result.total, result.count) == (4, 2)
    assert enumerate_menon_sum(6).total == 320
    assert enumerate_menon_sum(5, 2).total == 46


def test_term_counts_match_coprime_counts():
    for n in range(1, 13):
        assert enumerate_menon_sum(n).count == coprime_subsets(n)
        for k in (1, 2, 3):
            assert enumerate_menon_sum(n, k).count == coprime_subsets(n, k)


def test_histogram_partitions_all_subsets(sieve):
    for n in range(1, 13):
        hist = subset_gcd_histogram(n)
        assert sum(hist.values()) == (1 << n) - 1
        for j, count in hist.items():
            assert count == relprime_subsets(n // j)
            assert count == mobius_subset_count(n // j, sieve)


def test_gcd_class_hand_evaluations(sieve):
    cache = MemoCache()
    # n = 4: j in {1, 3} -> 4*f(4) + 2*f(1) = 44 + 2
    assert gcd_class_menon_sum(4, sieve, cache=cache) == 46
    # n = 5: 5*f(5) + f(2) + f(1) + f(1) = 130 + 2 + 1 + 1
    assert gcd_class_menon_sum(5, sieve, cache=cache) == 134
    # n = 6, k = 2: 6*f2(6) + 2*f2(1) = 66 + 0
    assert gcd_class_menon_sum(6, sieve, 2, cache) == 66


def test_gcd_class_matches_enumeration(sieve):
    cache = MemoCache()
    for n in range(1, 15):
        assert gcd_class_menon_sum(n, sieve, cache=cache) == enumerate_menon_sum(n).total
        for k in {1, 2, 3, n}:
            assert gcd_class_menon_sum(n, sieve, k, cache) == \
                enumerate_menon_sum(n, k).total


def test_gcd_class_matches_divisor_sum(sieve):
    cache = MemoCache()
    for n in range(1, 501):
        assert gcd_class_menon_sum(n, sieve, cache=cache) == menon_sum(n, cache=cache)
    for k in (1, 2, 3):
        for n in range(1, 101):
            assert gcd_class_menon_sum(n, sieve, k, cache) == \
                menon_sum(n, k, cache)


def test_enumeration_limit_guard():
    with pytest.raises(ValueError):
        enumerate_relprime_subsets(8, limit=6)
    with pytest.raises(ValueError):
        enumerate_menon_sum(25)  # default limit is 24
    assert enumerate_relprime_subsets(8, limit=8) == 236


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_relprime_subsets(0)
    with pytest.raises(ValueError):
        enumerate_relprime_subsets(5, 0)
    with pytest.raises(ValueError):
        enumerate_menon_sum(5, 0)
    with pytest.raises(ValueError):
        gcd_class_menon_sum(0, None)


def test_mobius_count_matches_enumeration(sieve):
    for n in range(1, 13):
        assert mobius_subset_count(n, sieve) == enumerate_relprime_subsets(n)
        for k in (1, 2, 3, n):
            assert mobius_subset_count(n, sieve, k) == enumerate_relprime_subsets(n, k)


def test_mobius_count_memoises_under_its_own_family(sieve):
    cache = MemoCache()
    assert mobius_subset_count(30, sieve, 2, cache) == relprime_subsets(30, 2)
    assert [key for key, _ in cache.items()] == [("mobius", 30, 2)]
    assert (cache.hits, cache.misses) == (0, 1)
    assert mobius_subset_count(30, sieve, 2, cache) == relprime_subsets(30, 2)
    assert (cache.hits, cache.misses) == (1, 1)


def test_mobius_count_rejects_undersized_sieve():
    with pytest.raises(ValueError):
        mobius_subset_count(9, build_sieve(8))
    with pytest.raises(ValueError):
        gcd_class_menon_sum(9, build_sieve(8), 2)


@pytest.mark.parametrize("oracle", [
    enumerate_relprime_subsets,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    lambda n, k=None: mobius_subset_count(n, build_sieve(16), k),
    lambda n, k=None: gcd_class_menon_sum(n, build_sieve(16), k),
])
@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_oracles_reject_non_integer_n_and_k(oracle, bad):
    with pytest.raises(TypeError):
        oracle(bad)
    with pytest.raises(TypeError):
        oracle(6, bad)


def bitmask_gcd(mask):
    # The bitmask walk's per-subset gcd: a low set bit b encodes the element
    # b.bit_length().  Stops early once the running gcd hits 1.
    g = 0
    while mask:
        low = mask & -mask
        g = math.gcd(g, low.bit_length())
        if g == 1:
            return 1
        mask ^= low
    return g


def bitmask_masks(n, k):
    # Every nonempty subset of {1..n} as a bitmask, or every k-subset: the
    # sums of k distinct bits.
    if k is None:
        return range(1, 1 << n)
    return map(sum, itertools.combinations([1 << i for i in range(n)], k))


def bitmask_histogram(n, k):
    """g -> subsets with gcd g, by the bitmask walk the oracle once used."""
    return Counter(map(bitmask_gcd, bitmask_masks(n, k)))


def assert_subset_walk_matches_the_bitmask_walk(n, k):
    hist = Counter(_subset_gcds(n, k))
    assert hist == bitmask_histogram(n, k), (n, k)
    assert sum(hist.values()) == ((1 << n) - 1 if k is None else math.comb(n, k)), (n, k)


def test_subset_walk_matches_the_bitmask_walk():
    for n in range(1, 15):
        for k in (None, *range(1, n + 2)):
            assert_subset_walk_matches_the_bitmask_walk(n, k)
        by_k = sum((Counter(_subset_gcds(n, k)) for k in range(1, n + 2)), Counter())
        assert by_k == Counter(_subset_gcds(n, None))  # the k-walks partition the walk


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(st.none(), st.integers(1, n + 1)))))
def test_subset_walk_matches_the_bitmask_walk_for_random_k(n_k):
    assert_subset_walk_matches_the_bitmask_walk(*n_k)


ENUMERATORS = (
    enumerate_relprime_subsets,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
)


def test_cached_walk_gives_the_uncached_values():
    cache = MemoCache()
    for n in range(1, 15):
        for k in (None, *range(1, n + 2)):
            for oracle in ENUMERATORS:
                fresh = oracle(n, k)
                assert oracle(n, k, cache=cache) == fresh
                assert oracle(n, k, cache=cache) == fresh
        fresh = subset_gcd_histogram(n)
        assert subset_gcd_histogram(n, cache=cache) == fresh
        assert subset_gcd_histogram(n, cache=cache) == fresh


def test_each_cache_walks_each_n_and_k_once(subset_walks):
    first, second = MemoCache(), MemoCache()
    for cache in (first, first, second):
        for oracle in ENUMERATORS:
            oracle(8, cache=cache)
            oracle(8, 3, cache=cache)
        subset_gcd_histogram(8, cache=cache)
    # once per cache, not once per call: 2^8 - 1 subsets and C(8, 3) = 56 3-subsets
    assert subset_walks == [(8, None, 255), (8, 3, 56)] * 2
    subset_walks.clear()
    assert enumerate_relprime_subsets(8) == enumerate_relprime_subsets(8) == 236
    assert subset_walks == [(8, None, 255)] * 2  # no cache: no memo at all


def test_cached_walk_never_bypasses_the_limit():
    cache = MemoCache()
    for oracle in ENUMERATORS:
        oracle(8, cache=cache)
        oracle(8, 2, cache=cache)
    subset_gcd_histogram(8, cache=cache)
    for oracle in ENUMERATORS:
        for k in (None, 2):
            with pytest.raises(ValueError):
                oracle(8, k, limit=6, cache=cache)
    with pytest.raises(ValueError):
        subset_gcd_histogram(8, limit=6, cache=cache)


def test_histogram_limit_is_keyword_only():
    with pytest.raises(TypeError):
        subset_gcd_histogram(8, 6)
    with pytest.raises(ValueError):
        subset_gcd_histogram(8, limit=6)
    cache = MemoCache()
    hist = subset_gcd_histogram(8, limit=8, cache=cache)
    hist[1] = 0  # the caller's copy, not the memo
    assert subset_gcd_histogram(8, cache=cache) == subset_gcd_histogram(8)
    assert enumerate_relprime_subsets(8, cache=cache) == 236
