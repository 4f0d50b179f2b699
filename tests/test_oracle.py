import pytest

from menon_subsets import (
    MemoCache,
    build_sieve,
    coprime_subsets,
    menon_sum,
    relprime_subsets,
)
from menon_subsets.oracle import (
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


def test_k_subset_masks_partition_all_subsets():
    from menon_subsets.oracle import _masks

    for n in range(1, 11):
        by_k = [m for k in range(1, n + 2) for m in _masks(n, k)]
        assert sorted(by_k) == list(_masks(n, None)) == list(range(1, 1 << n))
        assert all(m.bit_count() == k for k in range(1, n + 1) for m in _masks(n, k))
