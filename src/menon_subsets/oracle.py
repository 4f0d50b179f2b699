"""Independent ground-truth evaluators for the counting functions and gcd sums.

Three flavours:

* definitional brute force over all 2^n - 1 nonempty subsets of {1..n},
  encoded as bitmasks (bit i-1 <-> element i);
* the textbook Möbius sum for the relatively prime count,
  sum over d in 1..n of mu(d) * g(floor(n/d)) with g(q) = 2^q - 1 or
  C(q, k), reading mu from the sieve tables; and
* a gcd-class route: the nonempty subsets of {1..n} whose gcd is exactly j
  biject with the relatively prime subsets of {1..floor(n/j)}, so the
  subset gcd sum collapses to a single sum over j of Möbius-sum counts.
  O(n) subset-count evaluations instead of 2^n subsets.

Every count and sum takes an optional k and then counts k-element subsets
only.
The gcd-class identity is validated against full enumeration in the test
suite before anything trusts it at scales enumeration cannot reach.
Nothing here calls the counting or gcd-sum modules: the oracles read mu
from the sieve, not from a factorisation, and memoise under the family
("mobius", k), which the core never reads.  No clever subset DP here on
purpose: the whole value of this module is that it is obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .counts import MemoCache
from .sieve import SieveTables, check_args, gcd

DEFAULT_ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class SubsetSum:
    """Result of an enumerated gcd sum: term count plus accumulated total."""

    n: int
    k: int | None
    count: int
    total: int


def _check_enum(n: int, k: int | None, limit: int) -> tuple[int, int | None]:
    n, k = check_args(n, k)
    if n > limit:
        raise ValueError(
            f"enumerating 2^{n} subsets exceeds the limit {limit}; "
            "pass a larger `limit` explicitly if you really mean it"
        )
    return n, k


def _mask_gcd(mask: int) -> int:
    # gcd of the elements encoded by mask; a low set bit b encodes the
    # element b.bit_length().  Stops early once the running gcd hits 1.
    g = 0
    while mask:
        low = mask & -mask
        g = gcd(g, low.bit_length())
        if g == 1:
            return 1
        mask ^= low
    return g


def _masks(n: int, k: int | None):
    # Every nonempty subset of {1..n} as a bitmask, or every k-subset: the
    # sums of k distinct bits, C(n, k) masks rather than a filter over 2^n.
    if k is None:
        return range(1, 1 << n)
    return map(sum, combinations([1 << i for i in range(n)], k))


def enumerate_relprime_subsets(
    n: int, k: int | None = None, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> int:
    """Count nonempty (k-element) subsets of {1..n} whose elements have gcd 1."""
    n, k = _check_enum(n, k, limit)
    return sum(1 for mask in _masks(n, k) if _mask_gcd(mask) == 1)


def enumerate_coprime_subsets(
    n: int, k: int | None = None, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> int:
    """Count nonempty (k-element) subsets of {1..n} whose gcd is coprime to n."""
    n, k = _check_enum(n, k, limit)
    return sum(1 for mask in _masks(n, k) if gcd(_mask_gcd(mask), n) == 1)


def enumerate_menon_sum(
    n: int, k: int | None = None, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> SubsetSum:
    """Accumulate gcd(g - 1, n) over nonempty (k-)subsets with gcd g coprime to n.

    Note gcd(0, n) = n, so subsets with g = 1 contribute n each.  Returns
    the term count alongside the total; the count must equal the coprime
    subset count.
    """
    n, k = _check_enum(n, k, limit)
    count = 0
    total = 0
    for mask in _masks(n, k):
        g = _mask_gcd(mask)
        if gcd(g, n) == 1:
            count += 1
            total += gcd(g - 1, n)
    return SubsetSum(n=n, k=k, count=count, total=total)


def subset_gcd_histogram(
    n: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> dict[int, int]:
    """Map j -> number of nonempty subsets of {1..n} with gcd exactly j.

    The histogram values must sum to 2^n - 1, and entry j must equal the
    relatively prime subset count of floor(n/j); both facts back the
    gcd-class evaluators below.
    """
    n, _ = _check_enum(n, None, limit)
    hist: dict[int, int] = {}
    for mask in _masks(n, None):
        g = _mask_gcd(mask)
        hist[g] = hist.get(g, 0) + 1
    return hist


def mobius_subset_count(
    n: int, sieve: SieveTables, k: int | None = None, cache: MemoCache | None = None
) -> int:
    """Relatively prime (k-)subset count of {1..n} by the Möbius sum over 1..n.

    sum over d in 1..n of mu(d) * (2^floor(n/d) - 1), or of
    mu(d) * C(floor(n/d), k): Θ(n) terms, mu read from `sieve`, which must
    reach n.
    """
    n, k = _check_sieve(n, k, sieve)
    return _mobius_count(n, k, sieve.mu, cache)


def _check_sieve(n, k, sieve: SieveTables) -> tuple[int, int | None]:
    n, k = check_args(n, k)
    if sieve.limit < n:
        raise ValueError(f"sieve limit {sieve.limit} is too small for n = {n}")
    return n, k


def _mobius_count(n: int, k: int | None, mu: list[int], cache: MemoCache | None) -> int:
    table = cache.table(("mobius", k)) if cache is not None else {}
    if n in table:
        cache.hits += 1
        return table[n]
    total = 0
    for d in range(1, n + 1):
        if mu[d]:
            q = n // d
            total += mu[d] * (((1 << q) - 1) if k is None else comb(q, k))
    if cache is not None:
        cache.misses += 1
    table[n] = total
    return total


def gcd_class_menon_sum(
    n: int, sieve: SieveTables, k: int | None = None, cache: MemoCache | None = None
) -> int:
    """Subset gcd sum via grouping by the exact gcd value j.

    total = sum over j in 1..n with gcd(j, n) = 1 of
            gcd(j - 1, n) * (# (k-)subsets with gcd exactly j),
    and the subset count for gcd j is the relatively prime subset count at
    floor(n/j), here the Möbius sum over the sieve.  Shares no code with
    the divisor-sum evaluator.
    """
    n, k = _check_sieve(n, k, sieve)
    total = 0
    for j in range(1, n + 1):
        if gcd(j, n) == 1:
            total += gcd(j - 1, n) * _mobius_count(n // j, k, sieve.mu, cache)
    return total
