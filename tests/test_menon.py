import gc
import hashlib
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
import menon_subsets.counts as counts_mod
import menon_subsets.menon as menon_mod
from menon_subsets.counts import _adjoint, _term_sum, floor_vectors, relprime_column
from menon_subsets.menon import _mu_phi, _progression_tails, divisor_pairs, menon_column
from menon_subsets.oracle import (enumerate_menon_sum, gcd_class_menon_sum,
                                  prime_power_menon_sum, residue_menon_sum)

# Frozen from the bitmask enumeration oracle; index i holds n = i + 1.
MBAR = (1, 4, 16, 46, 134, 320, 822, 1898, 4414, 9844, 22106, 48208,
        105522, 227364)
MBAR_2 = (0, 2, 9, 20, 46, 66, 123, 170, 251, 316, 465, 544, 762, 894)
MBAR_3 = (0, 0, 3, 16, 50, 114, 239, 416, 715, 1092, 1705, 2352, 3430, 4558)

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)
POWER_SIEVE = build_sieve(256)  # the prime-power identity reads phi, mu and primality here


def totients(fac):
    """d -> phi(d) for every divisor d of fac.n, d ascending, built from its factors."""
    out = [(1, 1)]
    for p, e in fac.factors:
        out += [(d * p**i, f * p ** (i - 1) * (p - 1)) for d, f in out for i in range(1, e + 1)]
    return dict(sorted(out))


def all_pairs(fac):
    """(d, delta, phi(d) * mu(delta)) for every coprime divisor d and squarefree divisor
    delta of fac.n, d = 1 included: all prod(e + 2) of them, by the filtered double loop."""
    phi = totients(fac)
    mu = {delta: math.prod(0 if delta % (p * p) == 0 else -1 if delta % p == 0 else 1
                           for p, _ in fac.factors) for delta in phi}
    return [(d, delta, phi_d * mu_delta)
            for d, phi_d in phi.items()
            for delta, mu_delta in mu.items()
            if mu_delta and gcd(d, delta) == 1]


def weighted_count(weights, n, k):
    """The count core's sum of w * F(q) over the weights {q: w} on floor values q of n."""
    big, small = floor_vectors(n)
    for q, w in weights.items():
        vector, i = (small, q) if q < len(small) else (big, n // q)
        vector[i] += w
    return _term_sum(k, _adjoint(big, small, n))


def test_classic_small_values():
    assert menon_classic(1) == 1
    assert menon_classic(4) == 6  # (0,4) + (2,4) over a in {1, 3}
    assert menon_classic(12) == 24


def test_classic_product_equals_direct_sum():
    for n in range(1, 241):
        assert menon_classic(n) == residue_menon_sum(n)


def test_known_values():
    assert [menon_sum(n) for n in range(1, 15)] == list(MBAR)
    assert [menon_sum(n, 2) for n in range(1, 15)] == list(MBAR_2)
    assert [menon_sum(n, 3) for n in range(1, 15)] == list(MBAR_3)


def test_reduces_to_classic_at_k1():
    for n in range(1, 241):
        assert menon_sum(n, 1) == menon_classic(n)


def test_full_set_diagonal():
    for n in range(1, 21):
        assert menon_sum(n, n) == n


def test_k_beyond_n_is_zero():
    assert menon_sum(4, 9) == 0


def test_cardinality_partition():
    for n in range(1, 17):
        total = sum(menon_sum(n, k) for k in range(1, n + 1))
        assert total == menon_sum(n)


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
        assert menon_sum(n) == gcd_class_menon_sum(n, sieve, cache=cache)


def test_params_validation():
    with pytest.raises(ValueError):
        MenonParams(n=0)
    with pytest.raises(ValueError):
        MenonParams(n=5, k=0)
    with pytest.raises(TypeError):
        MenonParams(n=8, strategy="prime-power")  # no route to choose: one field less


def test_shared_cache_is_reused(sieve):
    # The gcd-class oracle keeps one Möbius sum per distinct 30 // j in the memo: a
    # second call is served from it entirely.  The divisor sum keeps nothing.
    cache = MemoCache()
    first = gcd_class_menon_sum(30, sieve, cache=cache)
    misses = cache.misses
    assert (cache.hits, misses, len(cache)) == (0, 4, 4)  # 30 // j in {30, 4, 2, 1}
    assert gcd_class_menon_sum(30, sieve, cache=cache) == first == menon_sum(30)
    assert (cache.hits, cache.misses, len(cache)) == (4, misses, 4)


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


def test_evaluate_ignores_the_old_cache_slot():
    # evaluate(params, cache) callers still run, cold; the keyword is gone.
    assert evaluate(MenonParams(30, 2), None) == evaluate(MenonParams(30, 2), MemoCache()) == \
        menon_sum(30, 2)
    with pytest.raises(TypeError):
        evaluate(MenonParams(30), cache=MemoCache())


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
    got = evaluate(MenonParams(n, k))
    assert got == gcd_class_menon_sum(n, BIG_SIEVE, k, oracle_cache)


@settings(deadline=None)
@given(SHAPED_N)
def test_singleton_sum_is_phi_times_tau(n):
    expected = BIG_SIEVE.phi[n] * sum(1 for d in range(1, n + 1) if n % d == 0)
    assert evaluate(MenonParams(n, 1)) == expected


# Every n of the benchmark's gcd-sum pools (perfbench/workloads.py).
GCDSUM_POOL_N = (47670, 48090, 48930, 55440, 56027, 56033, 56153, 56257, 56261, 56279, 56291,
                 56317, 56323, 56341, 56363, 56387, 58800, 59049, 59400, 61200, 65407, 65413,
                 65419, 65423, 65437, 65447, 65449, 65479, 65497, 65519, 65521, 65536, 68921,
                 78125, 83521)


def test_divisor_pairs_are_the_filtered_double_loop():
    # The pairs built prime by prime are exactly the (divisor > 1, squarefree
    # divisor) pairs with gcd 1, each once, with the weight phi(d) * mu(delta),
    # as the progression m0 = delta * (delta^-1 mod d) (mod stride = d * delta).
    for n in (*range(1, 10**4 + 1), *GCDSUM_POOL_N):
        fac = factorize(n)
        filtered = sorted((delta * pow(delta, -1, d), d * delta, w)
                          for d, delta, w in all_pairs(fac) if d > 1)
        pairs = divisor_pairs(fac)
        assert sorted(pairs) == filtered
        assert all(0 < m0 < stride for m0, stride, _ in pairs), n
        assert len(pairs) == math.prod(e + 2 for _, e in fac.factors) - 2 ** len(fac.factors)


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
    # The oracles' memo preseeded at the smaller n, and the columns to n, give at
    # n and at every seed what cold per-n calls give.
    n, seeds, k = query
    cache = MemoCache()
    for m in seeds:
        gcd_class_menon_sum(m, BIG_SIEVE, k, cache)
    f, mbar = relprime_column(n, k), menon_column(n, k)
    for m in (*seeds, n):
        assert f[m - 1] == relprime_subsets(m, k)
        assert mbar[m - 1] == menon_sum(m, k) == evaluate(MenonParams(m, k))
    assert gcd_class_menon_sum(n, BIG_SIEVE, k, cache) == mbar[n - 1]


def test_hot_path_leaves_no_reference_cycles():
    # Every object the evaluation creates is freed by reference counting, so
    # repeated calls do not pile work (and memory) up for the cyclic GC.
    gc.collect()
    gc.disable()
    try:
        for k in (None, 2):
            for n in (55440, 48090, 65536, 65521):
                evaluate(MenonParams(n, k))
            relprime_subsets(5000, k)
            for n in range(1, 60):
                evaluate(MenonParams(n, k))
                relprime_subsets(n, k)
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
    for d, delta, w in all_pairs(factorize(n)):
        if with_layer or d > 1:
            first = pow(delta, -1, d) if d > 1 else 1
            dict_progression(weights, n // delta, first, d, n // delta, w)
    return weights


def list_weights(n):
    """The nonzero weights {q: w} the list weight pass hands to the count core's adjoint."""
    seen = []

    def record(big, small, n):
        seen.append({**{n // u: w for u, w in enumerate(big) if w},
                     **{q: w for q, w in enumerate(small) if w}})
        return []

    with mock.patch.object(menon_mod, "_adjoint", record):
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


def rule_q0(n):
    """menon_sum's mask cut-off q0 at n: isqrt(n // (2P)), at least 1, P the d > 1 pairs."""
    factors = factorize(n).factors
    pairs = math.prod(e + 2 for _, e in factors) - 2 ** len(factors)
    return max(math.isqrt(n // (2 * max(pairs, 1))), 1)


def route_weights(n, q0s):
    """{q: w} from the block walk, then from the coprime mask at each q0 of q0s."""
    fac = factorize(n)
    pairs = [(delta * pow(delta, -1, d), d * delta, w) for d, delta, w in all_pairs(fac) if d > 1]
    walked = floor_vectors(n)
    for m0, stride, w in pairs:
        menon_mod._add_progression(*walked, n, m0, stride, w)
    routes = [walked]
    for q0 in q0s:
        routes.append(floor_vectors(n))
        menon_mod._mask_weights(*routes[-1], n, fac, pairs, q0)
    return [{**{n // u: w for u, w in enumerate(big) if w},
             **{q: w for q, w in enumerate(small) if w}} for big, small in routes]


def assert_weight_routes_match_dict_walk(n, q0s):
    walked = {q: w for q, w in walked_weights(n, with_layer=False).items() if w}
    for route in route_weights(n, q0s):
        assert route == walked, n


def test_both_weight_routes_match_the_dict_walk():
    # Either route at every n, whichever one menon_sum picks there; any cut-off q0 in
    # 1..isqrt(n) + 1 gives the mask route the same lists.
    for n in range(1, 3000):
        assert_weight_routes_match_dict_walk(n, {1, rule_q0(n), math.isqrt(n) + 1})


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 10**7),
                 st.sampled_from((9699690, 7207200, 720720, 65536, 9999991, 3233230))))
def test_both_weight_routes_match_the_dict_walk_up_to_ten_million(n):
    assert_weight_routes_match_dict_walk(n, {rule_q0(n)})


def test_weight_route_follows_the_pair_count():
    # The mask only once P^3 >= 16 n: primes, p * q and prime powers keep the walk.
    for n, masked in ((65521, False), (56027, False), (2**20, False), (83521, False),
                      (55440, True), (58800, True), (47670, True), (720720, True)):
        with mock.patch.object(menon_mod, "_mask_weights",
                               side_effect=menon_mod._mask_weights) as mask:
            menon_sum(n)
        assert mask.called == masked, n


@pytest.fixture(scope="module")
def sieve_720720():
    return build_sieve(720720)


@pytest.mark.parametrize("n, k", [(58800, None), (58800, 2), (61200, None), (61200, 2),
                                  (720720, 2)])
def test_masked_weights_match_gcd_class_oracle(sieve_720720, n, k):
    # Many-pair n, where menon_sum weighs from the coprime mask (720720 at k = None
    # takes the oracle about 20 s and is left out).
    assert evaluate(MenonParams(n, k)) == gcd_class_menon_sum(n, sieve_720720, k, MemoCache())


def assert_layer_matches_walk(n_max, values):
    # values(n_max, k), the gcd sums at 1..n_max, against the walked triple sum,
    # for k in {None, 1, 2, 3}.
    got = {k: values(n_max, k) for k in (None, 1, 2, 3)}
    for n in range(1, n_max + 1):
        weights = walked_weights(n)
        for k, column in got.items():
            assert column[n - 1] == weighted_count(weights, n, k), (n, k)


def test_closed_form_layer_matches_the_walked_layer_cold():
    assert_layer_matches_walk(1000, lambda n_max, k: [menon_sum(n, k)
                                                      for n in range(1, n_max + 1)])


def test_closed_form_layer_matches_the_walked_layer_in_a_sweep():
    assert_layer_matches_walk(3000, menon_column)


def test_remainder_over_the_layer_is_the_excess_gcd_sum():
    # menon_sum - Phi_k(n) sums gcd(gcd(A) - 1, n) - 1 over the subsets A:
    # what the weight pass and the core's guard now see, never negative.
    for n in range(1, 15):
        for k in (None, *range(1, n + 2)):
            brute = enumerate_menon_sum(n, k)
            remainder = menon_sum(n, k) - coprime_subsets(n, k)
            assert remainder == brute.total - brute.count >= 0, (n, k)


def _digest(value):
    return hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()


@pytest.mark.parametrize("compute, bits, digest", [
    (lambda: relprime_subsets(2**20), 1048576,
     "4bc7d89a4fa0c37a1faddf27ea025e3835fd4f996499498f810018f1858306ab"),
    (lambda: relprime_subsets(1048573, 2), 39,
     "46b5e39ec82ed1997eb055884f6e9211028cfd17d20d089540fecc12af75eb7d"),
    (lambda: evaluate(MenonParams(720720)), 720740,
     "6d6574d8dcbb95faf22c49300a6952ba6f6c393d03e6eb42239897f1aed3ffa7"),
    (lambda: evaluate(MenonParams(2**20, 2)), 59,
     "1e5c4a6a28977c83ba5e606e780a97ef28072b1017bbcb18cd8f9e89f02116a1"),
    (lambda: evaluate(MenonParams(78125)), 78142,
     "bbc18a06ac45cd20191fa53407c8c2a7862754dd98d7976a940747a9d23e910d"),
], ids=["f(2^20)", "f(1048573,2)", "mbar(720720)", "mbar(2^20,2)", "mbar(5^7)"])
def test_large_n_values_are_pinned(compute, bits, digest):
    # sha256 of the big-endian bytes, recorded from the descending-walk adjoint pass: no
    # oracle reaches these n, so the values may not move when the count core changes.
    value = compute()
    assert (value.bit_length(), _digest(value)) == (bits, digest)


def test_mu_and_phi_columns_match_the_sieve(sieve):
    # The signed inversion of [m = 1] and the inversion of m, against the linear sieve.
    assert _mu_phi(sieve.limit) == (sieve.mu, sieve.phi)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6, 7, 60, 120, 121, 300, 800])
def test_menon_column_matches_the_per_row_sums(n_max):
    # The d loop runs to n_max // 2: not at all at n_max 2 and 3, short of n_max at 4, 5
    # and 6, and at 6 it builds the first delta = 1 tail list (d = 2, R = 3 > d).
    for k in (None, 1, 2, 3, 7, (n_max + 1) // 2, max(n_max - 1, 1), n_max):
        assert menon_column(n_max, k) == [menon_sum(n, k) for n in range(1, n_max + 1)], k


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.one_of(st.none(), st.integers(1, 210)))
def test_menon_column_matches_the_per_row_sums_at_random(n_max, k):
    assert menon_column(n_max, k) == [menon_sum(n, k) for n in range(1, n_max + 1)]


def test_menon_column_matches_gcd_class_oracle(sieve):
    cache = MemoCache()
    assert menon_column(200) == [gcd_class_menon_sum(n, sieve, None, cache) for n in range(1, 201)]
    assert menon_column(120, 2) == [gcd_class_menon_sum(n, sieve, 2, cache) for n in range(1, 121)]
    assert menon_column(14) == list(MBAR)
    assert menon_column(14, 3) == list(MBAR_3)


def test_menon_column_diagonal_is_k():
    # The only k-subset of {1..k} is the whole set: gcd 1, contributing gcd(0, k) = k.
    for k in range(1, 41):
        assert menon_column(40, k)[k - 1] == k


def test_progression_sums_are_the_naive_progression_sums():
    # V(r) = sum over i < r of F(d r // (a + d i)): the term at r = n / (d delta) of
    # each pair with delta^-1 = a (mod d), summed member by member; its tail T(r) is
    # V(r) less the first member F(d r // a).  Where a (r - 1) < d,
    # d r // (a + d i) = (r - 1) // i for every i >= 1, so the members past the first sum
    # to the gcd-class total g(r - 1), g(N) = 2^N - 1 or C(N, k): menon_column's closed terms.
    for k in (None, 1, 2, 5):
        F = [0] + relprime_column(24 * 30, k)
        f = [0] + [F[q] - F[q - 1] for q in range(1, len(F))]
        g = [2**N - 1 if k is None else math.comb(N, k) for N in range(30)]
        closed = 0
        for d in range(2, 25):
            for a in (a for a in range(1, d) if gcd(a, d) == 1):
                naive = [sum(F[d * r // (a + d * i)] for i in range(r)) for r in range(31)]
                for R in range(1, 31):
                    assert _progression_tails(f, d, a, R) == [
                        naive[r] - F[d * r // a] for r in range(R + 1)], (d, a, R, k)
                for r in range(1, 31):
                    if a * (r - 1) < d:
                        assert naive[r] == F[d * r // a] + g[r - 1], (d, a, r, k)
                        closed += 1
        assert closed == 782, k
    # Past the guard the form can fail: at (d, a, r) = (2, 1, 4), k None, the member
    # i = 1 has 8 // 3 = 2, not 3 // 1 = 3.
    F = [0] + relprime_column(8)
    assert sum(F[8 // (1 + 2 * i)] for i in range(4)) != F[8] + 2**3 - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 600).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
       st.one_of(st.none(), st.integers(1, 6)))
def test_menon_column_rows_do_not_depend_on_n_max(mn, k):
    # Which pairs take closed terms (R = n_max // (d delta) <= 2, or a (R - 1) < d) and
    # which share a tail list depends on n_max; the value of a row may not.
    m, n = mn
    assert menon_column(m, k) == menon_column(n, k)[:m]


@pytest.mark.parametrize("k", [None, 2])
def test_menon_column_builds_few_progression_lists(monkeypatch, k):
    # A host-independent work bound at n_max = 800: the pairs with R = n_max // (d delta)
    # <= 2 or a (R - 1) < d take closed terms, so 226 tail lists of 4227 entries T(1..R)
    # in all are built, where closing only R <= 2 took 505 lists and 6071 entries, and one
    # list per distinct (d, a) took 1713 lists and 7568 entries.
    built = []
    original = menon_mod._progression_tails

    def spy(f, d, a, R):
        built.append((d, a, R))
        return original(f, d, a, R)

    monkeypatch.setattr(menon_mod, "_progression_tails", spy)
    menon_column(800, k)
    assert len(built) <= 226
    assert sum(R for _, _, R in built) <= 4227
    assert all(R >= 3 and a * (R - 1) >= d for d, a, R in built)


@pytest.mark.parametrize("k", [None, 2])
def test_menon_column_inverts_only_the_delta_above_one(monkeypatch, k):
    # A host-independent work bound at n_max = 800: the delta = 1 pairs have a = 1 and
    # open with phi(d) * F(n), which sum over d | n to (n - 1) * F(n), so only the 1711
    # coprime pairs (d > 1, squarefree delta >= 2) with d * delta <= 800 take an inverse;
    # one inverse for every pair took 2510.
    inverses = []

    def spy(*args):
        inverses.append(args)
        return pow(*args)

    monkeypatch.setattr(menon_mod, "pow", spy, raising=False)
    menon_column(800, k)
    assert len(inverses) == 1711
    assert all(delta >= 2 for delta, _, _ in inverses)


@pytest.mark.parametrize("k", [None, 2])
def test_menon_column_reads_the_delta_one_tails_from_r_two(monkeypatch, k):
    # A host-independent work bound at n_max = 800: the tail lists are read 5814 times,
    # 2279 by the delta = 1 pairs from r = 2 on (their T(1) is 0, and their first members
    # are the rows' (n - 1) * F(n)) and 3535 by the delta >= 2 pairs that read a list;
    # reading every member's tail, T(1) of the delta = 1 lists too, took 5840.
    reads = []

    class Tails(list):
        def __getitem__(self, r):
            reads.append(r)
            return super().__getitem__(r)

    original = menon_mod._progression_tails
    monkeypatch.setattr(menon_mod, "_progression_tails", lambda *args: Tails(original(*args)))
    menon_column(800, k)
    assert len(reads) <= 2279 + 3535


@pytest.mark.parametrize("k, calls", [(None, []), (2, [(800, 2)])])
def test_menon_column_reads_phi_off_the_f_steps(monkeypatch, k, calls):
    # At k None Phi(m) = 2 (F(m) - F(m - 1)) - [m = 1] comes from the F column the sweep
    # holds, with no second inversion; with k given the phik column is inverted.
    seen = []
    original = menon_mod.coprime_column

    def spy(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(menon_mod, "coprime_column", spy)
    menon_column(800, k)
    assert seen == calls


@pytest.mark.parametrize("k", [None, 2])
def test_menon_column_takes_the_f_steps_from_one_inversion(monkeypatch, k):
    # F and its steps f come from one _relprime_steps call, F as the prefix sums of f:
    # no relprime_column call, whose F the column would difference back into f.
    steps, columns = [], []
    original = menon_mod._relprime_steps

    def spy(*args):
        steps.append(args)
        return original(*args)

    monkeypatch.setattr(menon_mod, "_relprime_steps", spy)
    monkeypatch.setattr(counts_mod, "relprime_column", lambda *args: columns.append(args))
    monkeypatch.setattr(menon_mod, "relprime_column", lambda *args: columns.append(args),
                        raising=False)
    assert menon_column(300, k) == [menon_sum(n, k) for n in range(1, 301)]
    assert steps == [(300, k)]
    assert columns == []


@pytest.mark.parametrize("n, mask", [(55440, True), (47670, True), (720720, True),
                                     (65521, False), (56027, False), (2**16, False),
                                     (83521, False)])
def test_weight_route_follows_the_pair_count_at_k2(monkeypatch, n, mask):
    # A host-independent work bound: the mask's ~sqrt(n) fixed steps run only where the
    # P d > 1 pairs are many (P^3 >= 16 n); primes, p * q and prime powers walk the pairs.
    taken = []
    original = menon_mod._mask_weights

    def spy(*args):
        taken.append(args[2])
        return original(*args)

    monkeypatch.setattr(menon_mod, "_mask_weights", spy)
    menon_sum(n, 2)
    assert taken == ([n] if mask else [])
