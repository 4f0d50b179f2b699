"""Exact subset-counting functions over {1..n}.

relprime_subsets(n, k=None) -- nonempty subsets whose elements have gcd 1
coprime_subsets(n, k=None)  -- nonempty subsets whose gcd is coprime to n

With k given, only the k-element subsets are counted.  Both functions are
one formula over the term g(q) = 2^q - 1 (all nonempty subsets of {1..q})
or g(q) = C(q, k) (its k-subsets).  All results are exact Python ints; the
unrestricted counts grow like 2^n, so nothing here may round.  The signed
sums are checked nonnegative before they are returned -- a negative total
would mean a defect, never a valid answer.

relprime_subsets reads F(n) off floor_counts, which builds F at every floor
value of n bottom-up from the gcd-histogram identity (see its docstring);
coprime_subsets sums mu over the squarefree divisors of n, taken from one
factorisation.  Neither reads a sieve.
"""

from __future__ import annotations

from math import comb, isqrt

from .sieve import check_args, factorize

binomial = comb  # exact; comb(a, k) = 0 for k > a and comb(a, 0) = 1


class MemoCache:
    """Memo of subset counts shared across calls: one dict m -> value per family.

    The core keeps F(m) for each k under the family ("floor", k); the
    oracles keep their own values under families the core never reads.  A
    cached value always equals a fresh recomputation; the cache only ever
    short-circuits work.  `hits` and `misses` count the values found and
    computed, and feed the benchmark report.  Lookups and inserts are plain
    dict operations, so sharing one instance across threads behaves as if
    serialized.
    """

    __slots__ = ("_tables", "hits", "misses")

    def __init__(self) -> None:
        self._tables: dict[tuple, dict[int, int]] = {}
        self.hits = 0
        self.misses = 0

    def table(self, family: tuple) -> dict[int, int]:
        """The dict m -> value of `family`, created empty on first use."""
        return self._tables.setdefault(family, {})

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def items(self):
        """((tag, m, k), value) for every cached value of family (tag, k)."""
        for (tag, k), table in self._tables.items():
            for m, value in table.items():
                yield (tag, m, k), value


def _term(q: int, k: int | None) -> int:
    return ((1 << q) - 1) if k is None else comb(q, k)


def _finish(total: int) -> int:
    # Signed Möbius accumulation must land on a count.
    if total < 0:
        raise ArithmeticError(f"count came out negative ({total}); defect upstream")
    return total


def _floor_values(n: int) -> list[int]:
    # Every q <= isqrt(n) is a floor value; the larger ones are n // t, t <= r.
    r = isqrt(n)
    return list(range(1, r + 1)) + [n // t for t in range(r, 0, -1) if n // t > r]


def _fill(n: int, k: int | None, cache: MemoCache | None) -> dict[int, int]:
    # A dict m -> F(m) holding at least every floor value of n: the cache's
    # table for k, completed bottom-up.  The table is closed under
    # m -> m // j, so once it holds n it holds every floor value of n.
    table = {} if cache is None else cache.table(("floor", k))
    if n in table:
        cache.hits += 1
        return table
    values = _floor_values(n)
    missing = [m for m in values if m not in table]
    for m in missing:
        value = _term(m, k)
        j = 2
        while j <= m:
            q = m // j
            last = m // q
            value -= (last - j + 1) * table[q]
            j = last + 1
        table[m] = _finish(value)
    if cache is not None:
        cache.hits += len(values) - len(missing)
        cache.misses += len(missing)
    return table


def floor_counts(
    n: int, k: int | None = None, cache: MemoCache | None = None
) -> dict[int, int]:
    """Map q -> relprime count F(q) for every q in {floor(n/t) : t >= 1}.

    F is relprime_subsets(., k).  Grouping the nonempty (k-)subsets of
    {1..m} by their gcd j gives

        sum over j in 1..m of F(floor(m/j)) = g(m),

    with g(m) = 2^m - 1, or C(m, k).  Every floor(m/j) of a floor value m of
    n is again a floor value of n, so walking the floor values in ascending
    order and summing each left side in blocks of constant floor(m/j) yields
    F(m) = g(m) - sum over j >= 2 of F(floor(m/j)): O(n^(3/4)) small steps,
    O(sqrt n) values, no Möbius table (the Mertens-style recursion of
    Deléglise and Rivat).  With a cache, values are memoised per k and a
    floor value already there is not recomputed, so a sweep over n costs one
    block pass per new n.
    """
    n, k = check_args(n, k)
    table = _fill(n, k, cache)
    return {q: table[q] for q in _floor_values(n)}


def relprime_subsets(
    n: int, k: int | None = None, cache: MemoCache | None = None
) -> int:
    """Number of nonempty (k-element) subsets of {1..n} with gcd 1.

    Equals the Möbius sum over d in 1..n of mu(d) * g(floor(n/d)); computed
    by floor_counts.  0 whenever k > n.
    """
    n, k = check_args(n, k)
    return _fill(n, k, cache)[n]


def coprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} whose gcd is coprime to n.

    Sum over squarefree d | n of mu(d) * g(n/d).  With g(q) = 2^q - 1 the
    -1 terms cancel for n > 1 and leave 1 at n = 1: the lone subset {1},
    not the empty set.
    """
    n, k = check_args(n, k)
    total = sum(m * _term(n // d, k) for d, m in factorize(n).mobius().items())
    return _finish(total)
