import decimal
import random
import re
from itertools import accumulate
from math import comb as binomial
from math import isqrt
from operator import sub

import pytest
from hypothesis import assume, example, given, settings
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
    _doublings,
    _inverted,
    _push,
    _relprime_steps,
    _term_sum,
    coprime_column,
    floor_vectors,
    relprime_column,
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
    return _term_sum(k, _adjoint(big, small, n))


def _floor_values(n: int) -> list[int]:
    """The distinct n // t, t >= 1, in descending order: the reference list.

    n // t while it exceeds isqrt(n), then every q from isqrt(n) down to 1.
    """
    s = isqrt(n)
    return [n // t for t in range(1, s + (n // s > s))] + list(range(s, 0, -1))


def _floor_entries(n: int) -> int:
    """The entries of floor_vectors(n), less each list's padding index 0."""
    return sum(map(len, floor_vectors(n))) - 2


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
    # under ("mobius", n, k), a hit reads it back.  The gcd-class sum at 30 reads
    # one count per distinct 30 // j over the j coprime to 30: 30, 4, 2 and 1.
    cache = MemoCache()
    mobius_subset_count(30, sieve, 2, cache)
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    mobius_subset_count(30, sieve, 2, cache)
    mobius_subset_count(30, sieve, 3, cache)  # another k, another key
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
    assert all(_floor_entries(n) == len(_floor_values(n)) for n in range(1, 100_001))


@given(st.integers(1, 10**9))
def test_floor_count_property(n):
    assert _floor_entries(n) == len(_floor_values(n)) == len(set(_floor_values(n)))
    assert _floor_values(n) == sorted(_floor_values(n), reverse=True)


def test_floor_count_closed_form():
    assert all(_floor_entries(n) == n // (isqrt(n) + 1) + isqrt(n) for n in range(1, 100_001))


def test_floor_vectors_hold_each_floor_value_once():
    # big[u] stands for n // u and small[q] for q: together the floor values, descending.
    for n in range(1, 3001):
        big, small = floor_vectors(n)
        assert big[0] == small[0] == 0 and not any(big) and not any(small)
        held = [n // u for u in range(1, len(big))] + list(range(len(small) - 1, 0, -1))
        assert held == _floor_values(n)
        assert len(held) == _floor_entries(n)


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
    """[W_1, .., W_D] with L^T W = x on 1..D = len(x) - 1, the reference, by the odd system:
    L' F(m), the sum over odd j of F(m // j), is L F(m) - L F(m // 2).  The descending walk
    solves L'^T W' = x: at m, descending, W'_m is final and leaves -W'_m at m // i for each
    odd i >= 3, one i at a time.  Then W_r = W'_r - W'_2r - W'_(2r+1)."""
    x = list(x)
    for m in range(len(x) - 1, 2, -1):  # m <= 2 leaves nothing below it
        if x[m]:
            for i in range(3, m + 1, 2):
                x[m // i] -= x[m]
    D = len(x) - 1
    x += [0] * (D + 1)  # W'_m = 0 for D < m <= 2D + 1
    return [x[r] - x[2 * r] - x[2 * r + 1] for r in range(1, D + 1)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.sampled_from((1, 3, 30, 300)), st.integers(0, 2**32))
@example(3000, 1, 0)  # dense at the top of the range
def test_dense_solve_matches_the_descending_walk(D, sparsity, seed):
    # Random signed weights on 1..D, a share 1 / sparsity of them nonzero.
    rng = random.Random(seed)
    x = [0] + [rng.randint(-1000, 1000) if rng.random() * sparsity < 1 else 0
               for _ in range(D)]
    before = list(x)
    assert _dense_solve(x) == descending_solve(x)
    assert x == before  # not modified


@st.composite
def push_calls(draw):
    """(m, j): m at an edge of isqrt(m) or isqrt(m // 2), s^2, s^2 +- 1, s^2 + s or 2 s^2, and
    j among 1, 2, 3 and the adjoint's own U // t + 1 at n = m * t, where _push admits it."""
    s = draw(st.integers(1, 200), label="s")
    m = draw(st.sampled_from((s * s, s * s - 1, s * s + 1, s * s + s, 2 * s * s)), label="m")
    t = draw(st.integers(1, 8), label="t")
    n = max(m, 1) * t
    U = n // (max(isqrt(n), int(0.6 * n ** (2 / 3))) + 1)
    js = [1, 2, 3] + ([U // t + 1] if t <= U else [])
    admitted = [j for j in js if j <= m // (isqrt(m // 2) + 1) + 1]
    assume(m >= 1 and admitted)
    return m, draw(st.sampled_from(admitted), label="j")


@settings(max_examples=150, deadline=None)
@given(push_calls(), st.integers(-1000, 1000), st.integers(0, 2**32))
def test_push_is_the_naive_odd_walk(call, w, seed):
    m, j = call
    rng = random.Random(seed)
    small = [rng.randint(-1000, 1000) for _ in range(m // j + 1)]
    expected = list(small)
    for i in range(j, m + 1):
        if i % 2:
            expected[m // i] -= w
    _push(small, m, j, w)
    assert small == expected


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
    if expected < 0:  # the term sum guards its total as a count
        weights = {q: -w for q, w in weights.items()}
        expected = -expected
    assert _term_sum(k, adjoint_pairs(weights, n)) == expected


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
    if expected < 0:
        weights = {q: -w for q, w in weights.items()}
        expected = -expected
    assert _term_sum(k, adjoint_pairs(weights, n)) == expected
    assert weighted_count(weights, n, k) == expected


def all_j_solve(weights, n):
    """The nonzero (r, W_r), r ascending, of L^T W = w for the weights {q: w} on floor values
    of n, L F(m) the sum over all j of F(m // j): the descending walk over the floor values,
    each final W_m leaving -W_m at m // j for every j >= 2, one j at a time."""
    x = dict.fromkeys({n // t for t in range(1, n + 1)}, 0)
    for q, w in weights.items():
        x[q] += w
    for m in sorted(x, reverse=True):
        if x[m]:
            for j in range(2, m + 1):
                x[m // j] -= x[m]
    return [(r, w) for r, w in sorted(x.items()) if w]


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_floor_weights(), split_weights()))
def test_adjoint_pairs_are_the_all_j_solve(weighted):
    # The odd-j solve and its unfold return what solving L^T W = w over all j returns.
    n, weights = weighted
    assert adjoint_pairs(weights, n) == all_j_solve(weights, n)


def test_negative_total_is_refused():
    with pytest.raises(ArithmeticError):
        weighted_count({6: -1}, 6, None)
    with pytest.raises(ArithmeticError):
        weighted_count({6: -1}, 6, 2)


def test_columns_refuse_negative_counts(monkeypatch):
    # The shared inversion is signed (it also yields mu); each count column
    # guards its own result, and the gcd-sum column each row's pair sum, which
    # starts at (n - 1) * F(n), the first members of the delta = 1 pairs: the
    # negative F steps f(m) = -1, so F(m) = -m, drive it negative.
    import menon_subsets.counts as counts_mod
    import menon_subsets.menon as menon_mod

    monkeypatch.setattr(menon_mod, "_relprime_steps", lambda n_max, k: [-1] * n_max)
    with pytest.raises(ArithmeticError):
        menon_column(10)
    # Both unrestricted columns take their terms from the doubling sequence.
    monkeypatch.setattr(counts_mod, "_doublings",
                        lambda m_max, unit: [0] + [-m for m in range(1, m_max + 1)])
    for column in (coprime_column, relprime_column):
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
    expected = sum(w * g(r) for r, w in terms)
    if expected < 0:  # a negative total is refused; its negation is a count
        with pytest.raises(ArithmeticError):
            _term_sum(k, terms)
        terms, expected = [(r, -w) for r, w in terms], -expected
    assert _term_sum(k, terms) == expected


@given(st.lists(EXPONENTS, min_size=1, max_size=4), st.data(),
       st.sampled_from((None, None, 1, 2, 3)))
def test_term_sum_of_several_lists_is_the_sum_of_their_guarded_totals(lists, data, k):
    # Each list is summed and guarded on its own: any negative total is refused, even
    # when the others would make up for it.
    lists = [list(zip(rs, data.draw(st.lists(st.integers(-10**20, 10**20), min_size=len(rs),
                                             max_size=len(rs))))) for rs in lists]
    g = (lambda r: (1 << r) - 1) if k is None else (lambda r: binomial(r, k))
    totals = [sum(w * g(r) for r, w in terms) for terms in lists]
    if min(totals) < 0:
        with pytest.raises(ArithmeticError):
            _term_sum(k, *lists)
    else:
        assert _term_sum(k, *lists) == sum(totals)


def test_term_sum_edge_cases():
    assert _term_sum(None) == _term_sum(2) == 0
    assert _term_sum(None, []) == 0
    assert _term_sum(None, [(5, 3)]) == 3 * 31
    assert _term_sum(None, [(0, 7)]) == 0
    assert _term_sum(None, [(2, 0), (9, 0)]) == 0
    with pytest.raises(ArithmeticError):
        _term_sum(None, [(1, -1), (4, 2), (4, 1), (60, -1)])
    assert _term_sum(None, [(1, 1), (4, -2), (4, -1), (60, 1)]) == \
        1 - 2 * 15 - 15 + ((1 << 60) - 1)
    # Phi_k and a pair sum that share r = 6: each guarded, summed, C(6, 2) taken once.
    assert _term_sum(2, [(2, -1), (3, -1), (6, 1)], [(1, 4), (6, 2)]) == \
        (-1 - 3 + 15) + 2 * 15
    with pytest.raises(ArithmeticError):
        _term_sum(2, [(2, 1), (6, -1)], [(6, 5)])


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


@pytest.mark.parametrize("k", (None, 1, 2, 3))
def test_odd_gcd_classes_sum_to_the_halved_difference(k):
    # The identity at m less the same at m // 2 keeps the odd j alone:
    # sum over odd j <= m of F(m // j) = g(m) - g(m // 2), the adjoint's odd-j system.  F is
    # read off the column and checked against the oracle's Möbius sum.
    N = 2000
    F = [0] + relprime_column(N, k)
    assert F == [0] + [mobius_subset_count(q, BIG_SIEVE, k) for q in range(1, N + 1)]

    def g(m):
        return (1 << m) - 1 if k is None else binomial(m, k)

    for m in range(1, N + 1):
        assert sum(F[m // j] for j in range(1, m + 1, 2)) == g(m) - g(m // 2)


def _column_ks(n_max: int):
    # 3 < k < n_max too: the mid-range k, where the binomials are largest.
    return (None, 1, 2, 3, (n_max + 1) // 2, max(n_max - 1, 1), n_max, n_max + 2)


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


def naive_inversion(h):
    """u[1..N] with h[m] = sum over d | m of u[d]: each u[m] is h[m] less the u[d] of the
    proper divisors d of m, found by trial division."""
    u = [None]
    for m in range(1, len(h)):
        u.append(h[m] - sum(u[d] for d in range(1, m) if m % d == 0))
    return u[1:]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 3, -7, 2**70)), min_size=1, max_size=200))
def test_inverted_matches_the_naive_inversion_on_sparse_lists(h):
    # Mostly zeros: runs of zeros, leading ones among them, and inverses 0 at many m.
    h = [0] + h
    assert _inverted(list(h)) == naive_inversion(h)


@st.composite
def dense_inversion_inputs(draw):
    """[0, h(1..N)], N <= 400 so that N crosses the prime squares 4 .. 361: zero below a
    first nonzero h(j0) and dense signed above it, all zero when j0 = N + 1."""
    N = draw(st.integers(0, 400))
    j0 = draw(st.sampled_from((1, N + 1)) | st.integers(1, N + 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [0] * j0 + [rng.choice((-1, 1)) * rng.randint(1, 2**70) for _ in range(j0, N + 1)]


@settings(max_examples=150, deadline=None)
@given(dense_inversion_inputs())
@example([0])
@example([0] * 401)
def test_inverted_matches_the_naive_inversion_prime_by_prime(h):
    # The slice passes (p^2 <= N), the loop passes (p^2 > N) and the leading-zero skip.
    assert _inverted(list(h)) == naive_inversion(h)


class Counted(int):
    """An int whose subtractions are tallied in Counted.subtractions."""

    subtractions = 0

    def __sub__(self, other):
        Counted.subtractions += 1
        return Counted(int(self) - other)


def inversion_subtractions(h) -> int:
    Counted.subtractions = 0
    _inverted([Counted(v) for v in h])
    return Counted.subtractions


def test_inverted_takes_one_pass_per_prime():
    # The Euler product mu = prod over p of (1 - [p]) takes about N ln ln N subtractions;
    # subtracting each final u[d] from its multiples took 17460, 13712 and 1.
    assert inversion_subtractions(_doublings(2500, 2)) <= 5646
    assert inversion_subtractions([0] + _binomials(2499, 2)) <= 5075  # the fk k = 3 column
    assert inversion_subtractions(_binomials(4096, 2048)) == 1  # zero below 2048: p = 2 alone
    # The primes above sqrt(N) run per j and skip each h[j] = 0: mu's input [0, 1, 0, ..., 0]
    # at N = 800 and the fk k = 1 steps at 300 took 1674 and 578 with a loop per prime.
    assert inversion_subtractions([0, 1] + [0] * 799) < 1674
    assert inversion_subtractions([0] + _binomials(299, 0)) < 578


def test_inverted_matches_the_naive_inversion_in_decimal():
    # The table f|phi path inverts Decimal lists; here every third inverse entry is 0.
    u = [(1 << m) * (m % 3 != 0) for m in range(1, 121)]
    ints = [0] + [sum(u[d - 1] for d in range(1, m + 1) if m % d == 0) for m in range(1, 121)]
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(exact):
        h = [decimal.Decimal(v) for v in ints]
        got = _inverted(list(h))
        assert got == naive_inversion(h) == u
    assert all(isinstance(v, decimal.Decimal) for v in got)
    assert [str(v) for v in got] == [str(v) for v in u]


@pytest.mark.parametrize("n_max", [1, 2, 3, 12, 300])
def test_phi_is_twice_the_f_step_less_one_at_one(n_max):
    # 2^m - 1 = 2 * 2^(m - 1) - 1, and the f column inverts 2^(m - 1) into its steps
    # F(m) - F(m - 1): Phi(m) = 2 (F(m) - F(m - 1)) - [m = 1].  Phi here is a test-local
    # inversion of 2^m - 1, each Phi(m) = g(m) less the Phi(d) of the proper divisors d.
    phi = [0]
    for m in range(1, n_max + 1):
        phi.append((1 << m) - 1 - sum(phi[d] for d in range(1, m) if m % d == 0))
    F = [0] + relprime_column(n_max)
    assert coprime_column(n_max) == phi[1:] == [
        2 * (F[m] - F[m - 1]) - (m == 1) for m in range(1, n_max + 1)]


@pytest.mark.parametrize("one", [1, decimal.Decimal(1)], ids=["int", "Decimal"])
def test_phi_column_is_twice_the_f_steps_at_every_n_max(one):
    # menon_column reads Phi off the F steps at k None; the identity of the test above,
    # for each n_max <= 2500, in each exact unit the table path builds its columns from.
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(exact):
        for n_max in range(1, 2501):
            F = [0 * one] + relprime_column(n_max, one=one)
            want = [s + s for s in map(sub, F[1:], F[:-1])]
            want[0] -= 1
            column = coprime_column(n_max, one=one)
            assert column == want and type(column[-1]) is type(one), n_max


@pytest.mark.parametrize("one", [1, decimal.Decimal(1)], ids=["int", "Decimal"])
def test_relprime_steps_are_the_column_differences_at_every_n_max(one):
    # menon_column takes its F steps straight from the inversion; they are the steps of
    # the f column at every n_max <= 600, in each exact unit the table path builds from.
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(exact):
        for n_max in range(1, 601):
            for k in dict.fromkeys((None, 1, 2, 3, n_max)):
                unit = one if k is None else 1
                F = [0 * unit] + relprime_column(n_max, k, one=one)
                steps = _relprime_steps(n_max, k, one)
                assert steps == list(map(sub, F[1:], F[:-1])), (n_max, k)
                assert type(steps[-1]) is type(unit), (n_max, k)


def test_small_columns_match_cold_counts_at_every_n_max():
    # Small n_max and k near n_max: the zero-led binomial lists whose inversion skips primes.
    for n_max in range(1, 41):
        ns = range(1, n_max + 1)
        for k in {None, 1, n_max // 2, n_max - 1, n_max, n_max + 1} - {0}:
            assert relprime_column(n_max, k) == [relprime_subsets(n, k) for n in ns]
            assert coprime_column(n_max, k) == [coprime_subsets(n, k) for n in ns]


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


@pytest.mark.parametrize("n, k", [(4096, 2048), (55440, 2), (720720, 3), (65521, 2), (1, 1)])
def test_gcd_sum_takes_each_binomial_once(monkeypatch, n, k):
    # Phi_k(n)'s terms and the adjoint's output share r = n (and more): the one term sum
    # takes C(r, k) once per distinct r.
    import menon_subsets.counts as counts_mod

    taken = []

    def spy(r, j):
        taken.append((r, j))
        return binomial(r, j)

    monkeypatch.setattr(counts_mod, "comb", spy)
    menon_sum(n, k)
    assert len(taken) == len(set(taken)) and {j for _, j in taken} == {k}
    assert (n, k) in taken


@pytest.mark.parametrize("count", [relprime_subsets, menon_sum], ids=lambda f: f.__name__)
def test_dense_solve_stays_below_n_two_thirds(monkeypatch, count):
    # A host-independent work bound on the adjoint's split D ~ 0.6 n^(2/3): at n = 2^20 the
    # dense solve sees 6193 entries x[0..D]; a split at D = 0.6 n would hand it about 629k.
    import menon_subsets.counts as counts_mod

    sizes = []
    original = counts_mod._dense_solve

    def spy(x):
        sizes.append(len(x))
        return original(x)

    monkeypatch.setattr(counts_mod, "_dense_solve", spy)
    n = 2**20
    count(n, 2)
    assert sizes and max(sizes) <= n ** (2 / 3)


@pytest.mark.parametrize("count, bound", [(relprime_subsets, 15000), (menon_sum, 17800)],
                         ids=["relprime_subsets", "menon_sum"])
def test_push_steps_stay_on_the_odd_wheel(monkeypatch, count, bound):
    # A host-independent work bound on the adjoint's pushes: at n = 2^20 they write 14946
    # (relprime_subsets) and 17784 (menon_sum) entries, every odd i singly up to
    # m // (isqrt(m // 2) + 1) and one block per q below; walking every j, as the all-j
    # system does, writes 31441 and 37395.
    import menon_subsets.counts as counts_mod

    class Tally(list):
        steps = 0

        def __setitem__(self, i, v):
            Tally.steps += 1
            super().__setitem__(i, v)

    original = counts_mod._push

    def spy(small, m, j, w):
        tally = Tally(small)
        original(tally, m, j, w)
        small[:] = tally

    monkeypatch.setattr(counts_mod, "_push", spy)
    count(2**20, 2)
    assert 0 < Tally.steps <= bound
