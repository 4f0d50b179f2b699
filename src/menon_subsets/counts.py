"""Exact subset-counting functions over {1..n}.

relprime_subsets(n)      -- nonempty subsets whose elements have gcd 1
relprime_k_subsets(n, k) -- the k-element subsets among them
coprime_subsets(n)       -- nonempty subsets whose gcd is coprime to n
coprime_k_subsets(n, k)  -- the k-element subsets among them

All results are exact Python ints; the unrestricted counts grow like 2^n,
so nothing here may round.  The Möbius-weighted sums accumulate a signed
intermediate and every finished value is checked nonnegative before it is
returned -- a negative total would mean a defect, never a valid answer.

The full-range sums admit two strategies: DIRECT walks every d in 1..n,
BLOCKED exploits that floor(n/d) takes O(sqrt n) distinct values and sums
Möbius weights per block via the sieve's Mertens prefixes.  Both must
agree bit-exactly; BLOCKED exists for speed on large sweeps.

floor_counts(n, k) serves the gcd sums: it returns the relatively prime
count at every floor value floor(n/t) at once, needs no sieve, and shares no
code with the strategies above (see its docstring).
"""

from __future__ import annotations

import operator
from math import comb, isqrt

from .sieve import SieveTables, divisors

DIRECT = "direct"
BLOCKED = "blocked"
COUNT_STRATEGIES = (DIRECT, BLOCKED)

binomial = comb  # exact; comb(a, k) = 0 for k > a and comb(a, 0) = 1


class MemoCache:
    """Cache for subset-count values requested repeatedly by the gcd sums.

    Keys are ("f", n) or ("fk", n, k).  A cached value always equals a
    fresh recomputation; the cache only ever short-circuits work.  Hit and
    miss counters feed the benchmark report.  Lookups and inserts are
    plain dict operations, so sharing one instance across threads behaves
    as if serialized.
    """

    __slots__ = ("_values", "hits", "misses")

    def __init__(self) -> None:
        self._values: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> int | None:
        value = self._values.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: tuple, value: int) -> None:
        self._values[key] = value

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        return self._values.items()


def as_int(value, name: str) -> int:
    """`value` as a plain int; TypeError for a bool or a non-integer."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, not {type(value).__name__}"
        ) from None


def _check(n: int, sieve: SieveTables) -> None:
    if n < 1:
        raise ValueError("n must be >= 1 (subsets of {1..n})")
    if sieve.limit < n:
        raise ValueError(f"sieve limit {sieve.limit} is too small for n = {n}")


def _finish(total: int) -> int:
    # Signed Möbius accumulation must land on a count.
    if total < 0:
        raise ArithmeticError(f"count came out negative ({total}); defect upstream")
    return total


def _relprime_direct(n: int, mu: list[int]) -> int:
    total = 0
    for d in range(1, n + 1):
        m = mu[d]
        if m:
            total += m * ((1 << (n // d)) - 1)
    return total


def _relprime_blocked(n: int, mertens: list[int]) -> int:
    total = 0
    d = 1
    prev = 0
    while d <= n:
        q = n // d
        d = n // q  # last d in this block
        cur = mertens[d]
        total += (cur - prev) * ((1 << q) - 1)
        prev = cur
        d += 1
    return total


def _relprime_k_direct(n: int, k: int, mu: list[int]) -> int:
    total = 0
    for d in range(1, n + 1):
        m = mu[d]
        if m:
            total += m * comb(n // d, k)
    return total


def _relprime_k_blocked(n: int, k: int, mertens: list[int]) -> int:
    total = 0
    d = 1
    prev = 0
    while d <= n:
        q = n // d
        d = n // q
        cur = mertens[d]
        total += (cur - prev) * comb(q, k)
        prev = cur
        d += 1
    return total


def relprime_subsets(
    n: int,
    sieve: SieveTables,
    cache: MemoCache | None = None,
    strategy: str = DIRECT,
) -> int:
    """Number of nonempty subsets of {1..n} with gcd 1.

    Möbius inversion over the subset gcd: sum over d in 1..n of
    mu(d) * (2^floor(n/d) - 1).
    """
    _check(n, sieve)
    if strategy not in COUNT_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if cache is not None:
        hit = cache.get(("f", n))
        if hit is not None:
            return hit
    if strategy == DIRECT:
        value = _finish(_relprime_direct(n, sieve.mu))
    else:
        value = _finish(_relprime_blocked(n, sieve.mertens))
    if cache is not None:
        cache.put(("f", n), value)
    return value


def relprime_k_subsets(
    n: int,
    k: int,
    sieve: SieveTables,
    cache: MemoCache | None = None,
    strategy: str = DIRECT,
) -> int:
    """Number of k-element subsets of {1..n} with gcd 1.

    Sum over d in 1..n of mu(d) * C(floor(n/d), k); the binomial vanishes
    for k > floor(n/d), so the value is 0 whenever k > n.
    """
    _check(n, sieve)
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy not in COUNT_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if cache is not None:
        hit = cache.get(("fk", n, k))
        if hit is not None:
            return hit
    if strategy == DIRECT:
        value = _finish(_relprime_k_direct(n, k, sieve.mu))
    else:
        value = _finish(_relprime_k_blocked(n, k, sieve.mertens))
    if cache is not None:
        cache.put(("fk", n, k), value)
    return value


def coprime_subsets(n: int, sieve: SieveTables) -> int:
    """Number of nonempty subsets of {1..n} whose gcd is coprime to n.

    For n > 1 this is sum over d | n of mu(d) * 2^(n/d).  At n = 1 the raw
    sum would also count the empty set, so the value is pinned to 1 (the
    lone subset {1}).
    """
    _check(n, sieve)
    if n == 1:
        return 1
    mu = sieve.mu
    total = 0
    for d in divisors(n):
        m = mu[d]
        if m:
            total += m * (1 << (n // d))
    return _finish(total)


def coprime_k_subsets(n: int, k: int, sieve: SieveTables) -> int:
    """Number of k-element subsets of {1..n} whose gcd is coprime to n.

    Sum over d | n of mu(d) * C(n/d, k); 0 whenever k > n, and no n = 1
    special case is needed because C(1, k) already handles it.
    """
    _check(n, sieve)
    if k < 1:
        raise ValueError("k must be >= 1")
    mu = sieve.mu
    total = 0
    for d in divisors(n):
        m = mu[d]
        if m:
            total += m * comb(n // d, k)
    return _finish(total)


def floor_counts(
    n: int, k: int | None = None, cache: MemoCache | None = None
) -> dict[int, int]:
    """Map q -> relprime count F(q) for every q in {floor(n/t) : t >= 1}.

    F is relprime_subsets, or relprime_k_subsets(., k) when k is given.
    Grouping the nonempty (k-)subsets of {1..m} by their gcd j gives

        sum over j in 1..m of F(floor(m/j)) = g(m),

    with g(m) = 2^m - 1, or C(m, k).  Every floor(m/j) of a floor value m of
    n is again a floor value of n, so walking the floor values in ascending
    order and summing each left side in blocks of constant floor(m/j) yields
    F(m) = g(m) - sum over j >= 2 of F(floor(m/j)): O(n^(3/4)) small steps,
    O(sqrt n) values, no Möbius table (the Mertens-style recursion of
    Deléglise and Rivat).  Values are memoised in `cache` under
    ("floor", m, k), keys no other function reads.
    """
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1 (subsets of {1..n})")
    if k is not None:
        k = as_int(k, "k")
        if k < 1:
            raise ValueError("k must be >= 1")
    # Every q <= isqrt(n) is a floor value; the larger ones are n // t, t <= r.
    r = isqrt(n)
    values = list(range(1, r + 1)) + [n // t for t in range(r, 0, -1) if n // t > r]
    out: dict[int, int] = {}
    for m in values:
        key = ("floor", m, k)
        value = cache.get(key) if cache is not None else None
        if value is None:
            value = ((1 << m) - 1) if k is None else comb(m, k)
            j = 2
            while j <= m:
                q = m // j
                last = m // q
                value -= (last - j + 1) * out[q]
                j = last + 1
            value = _finish(value)
            if cache is not None:
                cache.put(key, value)
        out[m] = value
    return out
