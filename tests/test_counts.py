import pytest
from hypothesis import given
from hypothesis import strategies as st

from menon_subsets import (
    BLOCKED,
    DIRECT,
    MemoCache,
    binomial,
    build_sieve,
    coprime_k_subsets,
    coprime_subsets,
    floor_counts,
    relprime_k_subsets,
    relprime_subsets,
)
from menon_subsets.oracle import (
    enumerate_coprime_k_subsets,
    enumerate_coprime_subsets,
    enumerate_relprime_k_subsets,
    enumerate_relprime_subsets,
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


def test_relprime_known_values(sieve):
    assert [relprime_subsets(n, sieve) for n in range(1, 19)] == list(RELPRIME)


def test_relprime_pairs_known_values(sieve):
    assert [relprime_k_subsets(n, 2, sieve) for n in range(1, 15)] == list(RELPRIME_2)


def test_relprime_triples_known_values(sieve):
    assert [relprime_k_subsets(n, 3, sieve) for n in range(1, 15)] == list(RELPRIME_3)


def test_coprime_known_values(sieve):
    assert [coprime_subsets(n, sieve) for n in range(1, 15)] == list(COPRIME)


def test_coprime_k_known_values(sieve):
    assert [coprime_k_subsets(n, 2, sieve) for n in range(1, 15)] == list(COPRIME_2)
    assert [coprime_k_subsets(n, 3, sieve) for n in range(1, 15)] == list(COPRIME_3)


def test_singleton_count_is_always_one(sieve):
    assert all(relprime_k_subsets(n, 1, sieve) == 1 for n in range(1, sieve.limit + 1))


def test_full_set_is_the_only_n_subset(sieve):
    assert all(relprime_k_subsets(n, n, sieve) == 1 for n in range(1, 61))
    assert all(coprime_k_subsets(n, n, sieve) == 1 for n in range(1, 61))


def test_k_beyond_n_gives_zero(sieve):
    for n in (1, 2, 5, 17):
        assert relprime_k_subsets(n, n + 1, sieve) == 0
        assert coprime_k_subsets(n, n + 1, sieve) == 0
        assert relprime_k_subsets(n, 3 * n + 2, sieve) == 0


def test_strictly_monotone(sieve):
    previous = 0
    for n in range(1, 121):
        current = relprime_subsets(n, sieve)
        assert current > previous
        previous = current


def test_pair_count_is_totient_partial_sum(sieve):
    acc = 0
    for n in range(2, sieve.limit + 1):
        acc += sieve.phi[n]
        assert relprime_k_subsets(n, 2, sieve) == acc


def test_coprime_singletons_are_totient(sieve):
    assert all(coprime_k_subsets(n, 1, sieve) == sieve.phi[n] for n in range(1, 101))


def test_coprime_base_cases(sieve):
    assert coprime_subsets(1, sieve) == 1  # {1} alone; the raw sum would count {}
    assert coprime_subsets(2, sieve) == 2
    assert coprime_subsets(4, sieve) == 12
    assert coprime_k_subsets(4, 2, sieve) == 5  # of six pairs only {2,4} fails


def test_cardinality_partitions(sieve):
    for n in range(1, 61):
        assert sum(relprime_k_subsets(n, k, sieve) for k in range(1, n + 1)) == \
            relprime_subsets(n, sieve)
        assert sum(coprime_k_subsets(n, k, sieve) for k in range(1, n + 1)) == \
            coprime_subsets(n, sieve)


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


def test_strategies_agree_densely(sieve):
    for n in range(1, 401):
        assert relprime_subsets(n, sieve, strategy=DIRECT) == \
            relprime_subsets(n, sieve, strategy=BLOCKED)
    for k in (1, 2, 3, 7):
        for n in range(1, 401):
            assert relprime_k_subsets(n, k, sieve, strategy=DIRECT) == \
                relprime_k_subsets(n, k, sieve, strategy=BLOCKED)


@given(st.integers(1, 1200), st.integers(1, 40))
def test_strategies_agree_property(sieve, n, k):
    assert relprime_subsets(n, sieve, strategy=DIRECT) == \
        relprime_subsets(n, sieve, strategy=BLOCKED)
    assert relprime_k_subsets(n, k, sieve, strategy=DIRECT) == \
        relprime_k_subsets(n, k, sieve, strategy=BLOCKED)


def test_matches_enumeration(sieve):
    for n in range(1, 15):
        assert relprime_subsets(n, sieve) == enumerate_relprime_subsets(n)
        assert coprime_subsets(n, sieve) == enumerate_coprime_subsets(n)
        for k in {1, 2, 3, n}:
            assert relprime_k_subsets(n, k, sieve) == \
                enumerate_relprime_k_subsets(n, k)
            assert coprime_k_subsets(n, k, sieve) == \
                enumerate_coprime_k_subsets(n, k)


def test_cache_is_transparent(sieve):
    shared = MemoCache()
    with_cache = [relprime_subsets(n, sieve, cache=shared) for n in range(1, 101)]
    without = [relprime_subsets(n, sieve) for n in range(1, 101)]
    assert with_cache == without
    # warm lookups return the identical values
    again = [relprime_subsets(n, sieve, cache=shared) for n in range(1, 101)]
    assert again == without
    for (tag, n, *rest), value in shared.items():
        assert tag == "f"
        assert value == relprime_subsets(n, sieve)


def test_cache_counts_hits_and_misses(sieve):
    cache = MemoCache()
    relprime_k_subsets(30, 2, sieve, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    relprime_k_subsets(30, 2, sieve, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
    relprime_k_subsets(30, 3, sieve, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)


def test_rejects_bad_arguments(sieve):
    with pytest.raises(ValueError):
        relprime_subsets(0, sieve)
    with pytest.raises(ValueError):
        relprime_k_subsets(5, 0, sieve)
    with pytest.raises(ValueError):
        coprime_subsets(0, sieve)
    with pytest.raises(ValueError):
        coprime_k_subsets(3, 0, sieve)
    with pytest.raises(ValueError):
        relprime_subsets(10, sieve, strategy="clever")


def test_rejects_undersized_sieve():
    tiny = build_sieve(8)
    with pytest.raises(ValueError):
        relprime_subsets(9, tiny)
    with pytest.raises(ValueError):
        coprime_k_subsets(9, 2, tiny)


def _direct(q, k, sieve):
    if k is None:
        return relprime_subsets(q, sieve, strategy=DIRECT)
    return relprime_k_subsets(q, k, sieve, strategy=DIRECT)


@given(st.integers(1, 1200), st.sampled_from((None, 1, 2, 3, 5)))
def test_floor_counts_match_direct_counts(sieve, n, k):
    counts = floor_counts(n, k)
    assert set(counts) == {n // t for t in range(1, n + 1)}
    for q, value in counts.items():
        assert value == _direct(q, k, sieve)


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
