import random
import re
from itertools import accumulate
from math import comb as binomial
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menon_subsets import (
    MemoCache,
    MenonParams,
    build_sieve,
    coprime_subsets,
    evaluate,
    relprime_subsets,
)
from menon_subsets.counts import (
    _adjoint,
    _binomials,
    _dense_solve,
    _floor_count,
    _inverted,
    _push,
    _term_sum,
    coprime_column,
    floor_vectors,
    relprime_column,
    vector_count,
)
from menon_subsets.menon import menon_column, menon_sum
from menon_subsets.oracle import (
    enumerate_coprime_subsets,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    mobius_subset_count,
)


def weighted_count(weights, n, k):
    """The count core's sum of w * F(q) over the weights {q: w} on floor values q of n."""
    big, small = floor_vectors(n)
    for q, w in weights.items():
        vector, i = (small, q) if q < len(small) else (big, n // q)
        vector[i] += w
    return vector_count(big, small, n, k)


def _floor_values(n: int) -> list[int]:
    """The distinct n // t, t >= 1, in descending order: the reference list.

    n // t while it exceeds isqrt(n), then every q from isqrt(n) down to 1.
    """
    s = isqrt(n)
    return [n // t for t in range(1, s + (n // s > s))] + list(range(s, 0, -1))


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
    # The oracles' shared memo, asked in any order, and the columns, read at any
    # row, both give the cold per-n values.
    shared = MemoCache()
    f = relprime_column(max(order), k)
    mbar = menon_column(max(order), k)
    for n in order:
        assert mobius_subset_count(n, BIG_SIEVE, k, shared) == f[n - 1] == relprime_subsets(n, k)
        assert mbar[n - 1] == evaluate(MenonParams(n, k))


def test_matches_enumeration():
    for n in range(1, 15):
        assert relprime_subsets(n) == enumerate_relprime_subsets(n)
        assert coprime_subsets(n) == enumerate_coprime_subsets(n)
        for k in {1, 2, 3, n}:
            assert relprime_subsets(n, k) == enumerate_relprime_subsets(n, k)
            assert coprime_subsets(n, k) == enumerate_coprime_subsets(n, k)


def test_cache_is_transparent(sieve):
    # The oracles' memo gives what a cold call gives, warm or not, and holds
    # only the Möbius sums, under their own family.
    shared = MemoCache()
    with_cache = [mobius_subset_count(n, sieve, None, shared) for n in range(1, 101)]
    without = [relprime_subsets(n) for n in range(1, 101)]
    assert with_cache == without == relprime_column(100)
    # warm lookups return the identical values
    again = [mobius_subset_count(n, sieve, None, shared) for n in range(1, 101)]
    assert again == without
    for (tag, n, *rest), value in shared.items():
        assert tag == "mobius"
        assert value == relprime_subsets(n)


def test_cache_counts_hits_and_misses(sieve):
    # The memo counts the oracles' Möbius sums: a miss computes and keeps one
    # under ("mobius", k), a hit reads it back.  The gcd-class sum at 30 reads
    # one count per distinct 30 // j over the j coprime to 30: 30, 4, 2 and 1.
    cache = MemoCache()
    mobius_subset_count(30, sieve, 2, cache)
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    mobius_subset_count(30, sieve, 2, cache)
    mobius_subset_count(30, sieve, 3, cache)  # another k, another family
    assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)
    assert gcd_class_menon_sum(30, sieve, 2, cache) == menon_column(30, 2)[29]
    assert (cache.hits, cache.misses, len(cache)) == (2, 5, 5)
    # The count core keeps nothing: its per-n calls equal the column cold.
    assert [relprime_subsets(n, 3) for n in range(1, 33)] == relprime_column(32, 3)
    assert (cache.hits, cache.misses, len(cache)) == (2, 5, 5)


def test_rows_for_a_k_may_start_at_k():
    # F(m) = 0 for m < k: a k-column's rows start at k, and equal the cold calls.
    assert relprime_subsets(5, 5) == 1
    assert relprime_column(8, 5) == [relprime_subsets(n, 5) for n in range(1, 9)] == \
        [0, 0, 0, 0, 1, 6, 21, 56]
    assert menon_column(8, 5) == [evaluate(MenonParams(n, 5)) for n in range(1, 9)]


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


def test_floor_counts_small_cases():
    # Unit weights read F(q) off one floor value of n; 6 has 1, 2, 3 and 6.
    def at(q, n, k=None):
        return weighted_count({q: 1}, n, k)

    assert at(1, 1) == 1
    assert [at(q, 6) for q in (1, 2, 3, 6)] == [1, 2, 5, 53]
    assert [at(q, 6, 2) for q in (1, 2, 3, 6)] == [0, 1, 3, 11]
    assert [at(q, 4, 9) for q in (1, 2, 4)] == [0, 0, 0]
    assert weighted_count({6: 2, 3: -1, 1: 0}, 6, None) == 2 * 53 - 5
    assert weighted_count({}, 6, None) == 0


@given(st.integers(1, 1200), st.sampled_from((None, 1, 2, 3, 5)))
def test_floor_counts_match_direct_counts(sieve, n, k):
    # Unit weights read F(q) off every floor value of n by the adjoint pass;
    # the column to n holds the same F(q).
    floors = _floor_values(n)
    assert set(floors) == {n // t for t in range(1, n + 1)}
    column = relprime_column(n, k)
    for q in floors:
        expected = mobius_subset_count(q, sieve, k)
        assert weighted_count({q: 1}, n, k) == expected == column[q - 1]


def test_floor_count_is_the_number_of_floor_values():
    assert all(_floor_count(n) == len(_floor_values(n)) for n in range(1, 100_001))


@given(st.integers(1, 10**9))
def test_floor_count_property(n):
    assert _floor_count(n) == len(_floor_values(n)) == len(set(_floor_values(n)))
    assert _floor_values(n) == sorted(_floor_values(n), reverse=True)


def test_floor_count_closed_form():
    assert all(_floor_count(n) == n // (isqrt(n) + 1) + isqrt(n) for n in range(1, 100_001))


def test_floor_vectors_hold_each_floor_value_once():
    # big[u] stands for n // u and small[q] for q: together the floor values, descending.
    for n in range(1, 3001):
        big, small = floor_vectors(n)
        assert big[0] == small[0] == 0 and not any(big) and not any(small)
        held = [n // u for u in range(1, len(big))] + list(range(len(small) - 1, 0, -1))
        assert held == _floor_values(n)
        assert len(held) == _floor_count(n)


@st.composite
def sparse_floor_weights(draw):
    """(n, weights): a few signed integer weights on floor values of n."""
    n = draw(st.integers(1, 3000))
    floors = sorted({n // t for t in range(1, n + 1)})
    keys = draw(st.lists(st.sampled_from(floors), min_size=1, max_size=8, unique=True))
    return n, {q: draw(st.integers(-1000, 1000)) for q in keys}


@settings(max_examples=150, deadline=None)
@given(sparse_floor_weights(), st.sampled_from((None, 1, 2, 3)))
def test_adjoint_total_matches_mobius_sum(weighted, k):
    n, weights = weighted
    expected = sum(w * mobius_subset_count(q, BIG_SIEVE, k) for q, w in weights.items())
    if expected < 0:  # a count core never returns a negative total
        weights = {q: -w for q, w in weights.items()}
        expected = -expected
    before = dict(weights)
    assert weighted_count(weights, n, k) == expected
    assert weights == before  # not modified


@st.composite
def edge_weights(draw):
    """(n, weights): n at an edge of the range of isqrt(n), weights on floor values near it.

    n is s^2, s^2 + s - 1, s^2 + s or (s + 1)^2 - 1, where the count of floor
    values above s = isqrt(n) steps from s - 1 to s; the keys are taken among
    the last big and first small entries of floor_vectors(n) and 1.
    """
    s = draw(st.integers(1, 3000), label="s")
    n = draw(st.sampled_from((s * s, s * s + s - 1, s * s + s, (s + 1) ** 2 - 1)), label="n")
    T = n // (s + 1)
    near = {n // u for u in range(max(1, T - 6), T + 1)} | set(range(max(1, s - 6), s + 1))
    near = sorted(q for q in near | {1} if q <= BIG_SIEVE.limit)
    keys = draw(st.lists(st.sampled_from(near), min_size=1, max_size=6, unique=True))
    return n, {q: draw(st.integers(-1000, 1000)) for q in keys}


@settings(max_examples=80, deadline=None)
@given(edge_weights(), st.sampled_from((None, 1, 2, 3)))
def test_adjoint_total_matches_mobius_sum_at_the_edges(weighted, k):
    n, weights = weighted
    expected = sum(w * mobius_subset_count(q, BIG_SIEVE, k) for q, w in weights.items())
    if expected < 0:
        weights = {q: -w for q, w in weights.items()}
        expected = -expected
    assert weighted_count(weights, n, k) == expected


def descending_solve(x):
    """The nonzero (q, W_q) of L^T W = x on 1..len(x) - 1 by the descending walk, the reference:
    at m, descending, W_m is final and leaves -(block length) * W_m at each m // j, j >= 2."""
    x = list(x)
    for m in range(len(x) - 1, 1, -1):  # m = 1 leaves nothing below it
        if x[m]:
            _push(x, m, 2, x[m])
    return [(q, w) for q, w in enumerate(x) if q and w]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.sampled_from((1, 3, 30, 300)), st.integers(0, 2**32))
def test_dense_solve_matches_the_descending_walk(D, sparsity, seed):
    # Random signed weights on 1..D, a share 1 / sparsity of them nonzero.
    rng = random.Random(seed)
    x = [0] + [rng.randint(-1000, 1000) if rng.random() * sparsity < 1 else 0
               for _ in range(D)]
    before = list(x)
    assert _dense_solve(x) == descending_solve(x)
    assert x == before  # not modified


def adjoint_pairs(weights, n):
    """_adjoint's pairs for the weights {q: w} on floor values q of n, checked to be what
    _term_sum takes: nonzero, r strictly ascending, each a floor value of n."""
    big, small = floor_vectors(n)
    for q, w in weights.items():
        vector, i = (small, q) if q < len(small) else (big, n // q)
        vector[i] += w
    pairs = _adjoint(big, small, n)
    floors = {n // t for t in range(1, n + 1)}
    assert all(w for _, w in pairs)
    assert all(r < s for (r, _), (s, _) in zip(pairs, pairs[1:]))
    assert {r for r, _ in pairs} <= floors
    return pairs


@settings(max_examples=100, deadline=None)
@given(sparse_floor_weights(), st.sampled_from((None, 1, 2, 3)))
def test_adjoint_pairs_are_what_the_term_sum_takes(weighted, k):
    n, weights = weighted
    expected = sum(w * mobius_subset_count(q, BIG_SIEVE, k) for q, w in weights.items())
    assert _term_sum(adjoint_pairs(weights, n), k) == expected


@st.composite
def split_weights(draw):
    """(n, weights): weights on floor values of n near the adjoint pass's dense split.

    The pass walks the floor values above D = max(isqrt(n), int(0.6 n^(2/3))) one by one
    and solves 1..D at once; the keys are taken among the floor values nearest D on both
    sides, those nearest U = n // (D + 1), 1 and n.
    """
    n = draw(st.integers(1, 3000), label="n")
    D = max(isqrt(n), int(0.6 * n ** (2 / 3)))
    U = n // (D + 1)
    floors = sorted({n // t for t in range(1, n + 1)})
    near = {q for q in floors if abs(q - U) <= 3} | {1, n}
    at = next((i for i, q in enumerate(floors) if q > D), len(floors))
    near |= set(floors[max(0, at - 4):at + 4])
    keys = draw(st.lists(st.sampled_from(sorted(near)), min_size=1, max_size=6, unique=True))
    return n, {q: draw(st.integers(-1000, 1000)) for q in keys}


@settings(max_examples=100, deadline=None)
@given(split_weights(), st.sampled_from((None, 1, 2, 3)))
def test_adjoint_total_matches_mobius_sum_at_the_split(weighted, k):
    n, weights = weighted
    expected = sum(w * mobius_subset_count(q, BIG_SIEVE, k) for q, w in weights.items())
    assert _term_sum(adjoint_pairs(weights, n), k) == expected
    if expected < 0:
        weights = {q: -w for q, w in weights.items()}
        expected = -expected
    assert weighted_count(weights, n, k) == expected


def test_negative_total_is_refused():
    with pytest.raises(ArithmeticError):
        weighted_count({6: -1}, 6, None)
    with pytest.raises(ArithmeticError):
        weighted_count({6: -1}, 6, 2)


def test_columns_refuse_negative_counts(monkeypatch):
    # The shared inversion is signed (it also yields mu); each count column
    # guards its own result, and the gcd-sum column each row's pair sum, which
    # the decreasing F column F(m) = -m drives negative.
    import menon_subsets.counts as counts_mod
    import menon_subsets.menon as menon_mod

    monkeypatch.setattr(menon_mod, "relprime_column",
                        lambda n_max, k: [-m for m in range(1, n_max + 1)])
    with pytest.raises(ArithmeticError):
        menon_column(10)
    for name, column in (("_term", coprime_column), ("_top_term", relprime_column)):
        monkeypatch.setattr(counts_mod, name, lambda q, k: -q)
        with pytest.raises(ArithmeticError):
            column(10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.sampled_from((None, 1, 2, 3)), st.data())
def test_prefix_rows_match_the_cold_adjoint_value(n, k, data):
    # The f column is the prefix sums of its inversion: every row from a random
    # start on equals the cold adjoint value, and the gcd-sum column's row n the
    # cold gcd sum.
    start = data.draw(st.integers(0, n - 1), label="rows skipped")
    column = relprime_column(n, k)
    assert len(column) == n
    for m in range(start + 1, n + 1):
        assert column[m - 1] == relprime_subsets(m, k)
    assert menon_column(n, k)[n - 1] == evaluate(MenonParams(n, k))


EXPONENTS = st.lists(st.integers(0, 2000), max_size=40).map(sorted)


@given(EXPONENTS, st.data(), st.sampled_from((None, None, 1, 2, 3)))
def test_term_sum_matches_the_naive_sum(exponents, data, k):
    # Sorted exponents, repeats allowed, with signed weights including 0.
    weights = data.draw(st.lists(st.integers(-10**20, 10**20),
                                 min_size=len(exponents), max_size=len(exponents)))
    terms = list(zip(exponents, weights))
    g = (lambda r: (1 << r) - 1) if k is None else (lambda r: binomial(r, k))
    assert _term_sum(terms, k) == sum(w * g(r) for r, w in terms)


def test_term_sum_edge_cases():
    assert _term_sum([], None) == 0
    assert _term_sum([(5, 3)], None) == 3 * 31
    assert _term_sum([(0, 7)], None) == 0
    assert _term_sum([(2, 0), (9, 0)], None) == 0
    assert _term_sum([(1, -1), (4, 2), (4, 1), (60, -1)], None) == \
        -1 + 2 * 15 + 15 - ((1 << 60) - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10**4), st.sampled_from((None, 1, 2, 3, 4)))
def test_gcd_classes_of_the_subsets_sum_to_g(N, k):
    # Grouping the nonempty (k-)subsets of {1..N} by their gcd j gives
    # sum over j <= N of F(N // j) = g(N), with g(N) = 2^N - 1 or C(N, k):
    # the identity that puts the gcd sums' d = 1 layer in closed form.  F is
    # read off the column, which rests on another identity (the subsets
    # grouped by their largest element).
    F = relprime_column(N, k)
    g = (1 << N) - 1 if k is None else binomial(N, k)
    assert sum(F[N // j - 1] for j in range(1, N + 1)) == g


def _column_ks(n_max: int):
    return (None, 1, 2, 3, n_max, n_max + 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400).flatmap(
    lambda n_max: st.tuples(st.just(n_max), st.sampled_from(_column_ks(n_max)))))
def test_columns_match_the_per_n_route(sieve, case):
    # A column inverts a divisor-sum identity over 1..n_max; every value
    # equals the cold per-n value and, for F, the sieve Möbius sum.
    n_max, k = case
    f, phi = relprime_column(n_max, k), coprime_column(n_max, k)
    assert f == [relprime_subsets(n, k) for n in range(1, n_max + 1)]
    assert phi == [coprime_subsets(n, k) for n in range(1, n_max + 1)]
    assert f == [mobius_subset_count(n, sieve, k) for n in range(1, n_max + 1)]
    if k is not None and k > n_max:
        assert f == phi == [0] * n_max


@given(st.integers(0, 300).flatmap(lambda m_max: st.tuples(
    st.just(m_max), st.sampled_from((0, 1, 2, m_max, m_max + 1, m_max + 7)) | st.integers(0, 310))))
def test_stepped_binomials_are_comb(case):
    m_max, k = case
    assert _binomials(m_max, k) == [binomial(m, k) for m in range(m_max + 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 600).flatmap(lambda n_max: st.tuples(
    st.just(n_max), st.sampled_from((None, 1, 2, n_max, n_max + 1)) | st.integers(1, 610))))
def test_columns_are_the_inversions_of_comb(case):
    # The stepped binomials leave every column exactly as a comb per row made it.
    n_max, k = case
    g = [(1 << m) - 1 if k is None else binomial(m, k) for m in range(n_max + 1)]
    top = [0] + [1 << (m - 1) if k is None else binomial(m - 1, k - 1)
                 for m in range(1, n_max + 1)]
    assert coprime_column(n_max, k) == _inverted(g)
    assert relprime_column(n_max, k) == list(accumulate(_inverted(top)))


def test_columns_match_enumeration():
    oracle_cache = MemoCache()
    for n_max in range(1, 15):
        for k in _column_ks(n_max):
            assert coprime_column(n_max, k) == [
                enumerate_coprime_subsets(n, k, cache=oracle_cache) for n in range(1, n_max + 1)]
            assert relprime_column(n_max, k) == [
                enumerate_relprime_subsets(n, k, cache=oracle_cache) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("column, count", [(relprime_column, relprime_subsets),
                                           (coprime_column, coprime_subsets),
                                           (menon_column, menon_sum)])
@pytest.mark.parametrize("args", [(True,), (2.0,), (0,), (-3,), (10, True), (10, 2.0),
                                  (10, 0), (10, -1)])
def test_columns_reject_bad_arguments_as_the_counts_do(column, count, args):
    with pytest.raises((TypeError, ValueError)) as expected:
        count(*args)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        column(*args)
