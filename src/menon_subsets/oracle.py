"""Independent ground-truth evaluators for the counting functions and gcd sums.

Three flavours, each with an optional k that restricts it to k-subsets:

* brute force over the nonempty subsets of {1..n}, each taken as the tuple
  of its elements: one naive walk per (n, k) takes every subset's gcd from
  scratch, one gcd call over its elements, and groups the subsets by it,
  and the enumerate_* counts and subset_gcd_histogram read that histogram;
* the textbook Möbius sum for the relatively prime count, sum over d in
  1..n of mu(d) * g(floor(n/d)), g(q) = 2^q - 1 or C(q, k), taken one block
  of constant q = floor(n/d) at a time: the d in lo..hi add up to
  (M(hi) - M(lo - 1)) * g(q), M the Mertens function, the sieve's prefix sums
  of mu, so a count costs about 2 sqrt(n) terms instead of n;
* a gcd-class route: the subsets of {1..n} with gcd exactly j biject with
  the relatively prime subsets of {1..floor(n/j)}, so the subset gcd sum is
  one sum over j of Möbius-sum counts, O(n) of them instead of 2^n subsets.

residue_menon_sum is the classic Menon sum by its definition, over the
reduced residues mod n, and prime_power_menon_sum the subset gcd sum at a
prime power by the paper's prime-power identity, each term read naively
off the sieve and the Möbius-sum counts.

The gcd-class identity is validated against full enumeration in the test
suite before anything trusts it at scales enumeration cannot reach.
Nothing here calls the counting or gcd-sum modules: mu comes from the
sieve, not from a factorisation.  A MemoCache, when given, keeps the
histograms under ("enum", n, k) and the Möbius sums under ("mobius", n, k);
the counting and gcd-sum functions never read one, and no memo outlives it.  No
subset DP here on purpose: the whole value of this module is that it is
obviously correct.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, starmap
from math import comb, gcd
from typing import NamedTuple

from .counts import MemoCache
from .sieve import SieveTables, as_int, check_args

DEFAULT_ENUMERATION_LIMIT = 24


class SubsetSum(NamedTuple):
    """Result of an enumerated gcd sum: term count plus accumulated total."""

    n: int
    k: int | None
    count: int
    total: int


def _subset_gcds(n: int, k: int | None):
    # The gcd of every nonempty subset of {1..n}, or of every k-subset: one
    # gcd call on each element tuple, straight from its elements.
    sizes = range(1, n + 1) if k is None else (k,)
    return chain.from_iterable(starmap(gcd, combinations(range(1, n + 1), j)) for j in sizes)


def _walk(n, k, limit: int, cache: MemoCache | None):
    # (n, k) checked, and g -> number of nonempty (k-)subsets of {1..n} with
    # gcd exactly g: one walk over the subsets, one gcd from scratch per subset.
    n, k = check_args(n, k)
    if n > limit:
        raise ValueError(f"enumerating 2^{n} subsets exceeds the limit {limit}; "
                         "pass a larger `limit` explicitly if you really mean it")
    memo, key = {} if cache is None else cache, ("enum", n, k)
    if key not in memo:
        memo[key] = Counter(_subset_gcds(n, k))
    return n, k, memo[key]


def enumerate_relprime_subsets(n: int, k: int | None = None, *, cache: MemoCache | None = None,
                               limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Count nonempty (k-element) subsets of {1..n} whose elements have gcd 1."""
    return _walk(n, k, limit, cache)[2].get(1, 0)


def enumerate_coprime_subsets(n: int, k: int | None = None, *, cache: MemoCache | None = None,
                              limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Count nonempty (k-element) subsets of {1..n} whose gcd is coprime to n."""
    n, _, hist = _walk(n, k, limit, cache)
    return sum(c for g, c in hist.items() if gcd(g, n) == 1)


def enumerate_menon_sum(n: int, k: int | None = None, *, cache: MemoCache | None = None,
                        limit: int = DEFAULT_ENUMERATION_LIMIT) -> SubsetSum:
    """Accumulate gcd(g - 1, n) over nonempty (k-)subsets with gcd g coprime to n.

    Note gcd(0, n) = n, so subsets with g = 1 contribute n each.  Returns
    the term count alongside the total; the count must equal the coprime
    subset count.
    """
    n, k, hist = _walk(n, k, limit, cache)
    terms = [(c, gcd(g - 1, n)) for g, c in hist.items() if gcd(g, n) == 1]
    return SubsetSum(n, k, sum(c for c, _ in terms), sum(c * w for c, w in terms))


def subset_gcd_histogram(n: int, *, cache: MemoCache | None = None,
                         limit: int = DEFAULT_ENUMERATION_LIMIT) -> dict[int, int]:
    """Map j -> number of nonempty subsets of {1..n} with gcd exactly j.

    The histogram values must sum to 2^n - 1, and entry j must equal the
    relatively prime subset count of floor(n/j); both facts back the
    gcd-class evaluators below.
    """
    return dict(_walk(n, None, limit, cache)[2])


def mobius_subset_count(
    n: int, sieve: SieveTables, k: int | None = None, cache: MemoCache | None = None
) -> int:
    """Relatively prime (k-)subset count of {1..n} by the Möbius sum over 1..n.

    sum over d in 1..n of mu(d) * (2^floor(n/d) - 1), or of
    mu(d) * C(floor(n/d), k), summed per block of constant floor(n/d) by
    the Mertens function of `sieve` (O(sqrt(n)) terms), which must reach n.
    """
    n, k = _check_sieve(n, k, sieve)
    return _mobius_count(n, k, sieve.mertens, cache)


def _check_sieve(n, k, sieve: SieveTables) -> tuple[int, int | None]:
    n, k = check_args(n, k)
    if sieve.limit < n:
        raise ValueError(f"sieve limit {sieve.limit} is too small for n = {n}")
    return n, k


def _mobius_count(n: int, k: int | None, M: list[int], cache: MemoCache | None) -> int:
    # The Möbius sum by blocks: M[hi] - M[d - 1] is the sum of mu over d..hi, where n // . = q.
    key = ("mobius", n, k)
    if cache is not None and key in cache:
        cache.hits += 1
        return cache[key]
    total, d = 0, 1
    while d <= n:
        q = n // d
        hi = n // q
        s = M[hi] - M[d - 1]
        if s:
            total += s * (((1 << q) - 1) if k is None else comb(q, k))
        d = hi + 1
    if cache is not None:
        cache.misses += 1
        cache[key] = total
    return total


def gcd_class_menon_sum(
    n: int, sieve: SieveTables, k: int | None = None, cache: MemoCache | None = None
) -> int:
    """Subset gcd sum via grouping by the exact gcd value j.

    total = sum over j in 1..n with gcd(j, n) = 1 of
            gcd(j - 1, n) * (# (k-)subsets with gcd exactly j),
    and the subset count for gcd j is the relatively prime subset count at
    floor(n/j), here the Möbius sum over the sieve.  Shares no code with
    the divisor-sum evaluator.  Each distinct floor(n/j) has its count read
    once per call.
    """
    n, k = _check_sieve(n, k, sieve)
    counts, M = {}, sieve.mertens
    total = 0
    for j in range(1, n + 1):
        if gcd(j, n) == 1:
            q = n // j
            count = counts.get(q)
            if count is None:
                count = counts[q] = _mobius_count(q, k, M, cache)
            total += gcd(j - 1, n) * count
    return total


def prime_power_menon_sum(p: int, t: int, sieve: SieveTables, k: int | None = None,
                          cache: MemoCache | None = None) -> int:
    """Subset gcd sum at n = p^t by the paper's prime-power identity.

    Phi_k(p^t) + sum over s in 1..t of phi(p^s) * sum over j <= p^t with
    j = 1 (mod p^s) of F(p^t // j), F the Möbius-sum count: a prime power's
    only coprime divisor pairs are (1, 1), (1, p) and the (p^s, 1).  phi, mu
    and the primality of p are read from `sieve`, which must reach p^t.
    """
    p, k = check_args(p, k)
    t = as_int(t, "t")
    if t < 1:
        raise ValueError("exponent t must be >= 1")
    if p <= sieve.limit and sieve.phi[p] != p - 1:
        raise ValueError(f"{p} is not prime")
    if t > sieve.limit.bit_length() or p**t > sieve.limit:  # p^t >= 2^t: no huge power built
        raise ValueError(f"sieve limit {sieve.limit} is too small for n = {p}^{t}")
    n, mu, M = p**t, sieve.mu, sieve.mertens
    total = sum(mu[d] * ((1 << n // d) - 1 if k is None else comb(n // d, k))
                for d in range(1, n + 1) if n % d == 0)
    for s in range(1, t + 1):
        total += sieve.phi[p**s] * sum(_mobius_count(n // j, k, M, cache)
                                       for j in range(1, n + 1, p**s))
    return total


def residue_menon_sum(n: int) -> int:
    """The classic Menon sum by its definition: gcd(a - 1, n) over the reduced residues a mod n."""
    n, _ = check_args(n)
    return sum(gcd(a - 1, n) for a in range(1, n + 1) if gcd(a, n) == 1)
