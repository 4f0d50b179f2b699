"""Exact subset-counting functions over {1..n}.

relprime_subsets(n, k=None) -- nonempty subsets whose elements have gcd 1
coprime_subsets(n, k=None)  -- nonempty subsets whose gcd is coprime to n

With k given, only the k-element subsets are counted.  Both functions are
one formula over the term g(q) = 2^q - 1 (all nonempty subsets of {1..q})
or g(q) = C(q, k) (its k-subsets).  All results are exact Python ints; the
unrestricted counts grow like 2^n, so nothing here may round.  The signed
sums are checked nonnegative before they are returned -- a negative total
would mean a defect, never a valid answer.

The count core, weighted_count, returns the sum of w_q * F(q) over floor
values q of n for small-integer weights w_q, F = relprime_subsets(., k):
by an adjoint pass on small integers and one big-integer sum, or, when a
shared cache holds F(1..n-1), by one new prefix row.  relprime_subsets is
the weight vector {n: 1}; the gcd sums in menon.py pass theirs.  mu comes
from one factorisation of n; nothing here reads a sieve.
"""

from __future__ import annotations

from math import comb, isqrt

from .sieve import Factorization, check_args, factorize

binomial = comb  # exact; comb(a, k) = 0 for k > a and comb(a, 0) = 1


class MemoCache:
    """Memo of subset counts shared across calls: one dict m -> value per family.

    The core keeps the prefix rows F(lo..N) for each k under the family
    ("prefix", k); the oracles keep their own values, per-n gcd histograms
    among them, under families the core never reads.  A cached value always
    equals a fresh recomputation.  `misses` counts the counts computed
    (prefix rows appended, or the floor values an adjoint pass walked),
    `hits` the count calls answered without computing any; histograms move
    neither.  Lookups and inserts are plain dict operations, so sharing one
    instance across threads behaves as if serialized.
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


def _top_term(q: int, k: int | None) -> int:
    # The nonempty (k-)subsets of {1..q} whose largest element is q.
    return (1 << (q - 1)) if k is None else comb(q - 1, k - 1)


def _mobius_sum(fac: Factorization, term, k: int | None) -> int:
    # sum over squarefree delta | n of mu(delta) * term(n // delta, k)
    return sum(m * term(fac.n // d, k) for d, m in fac.mobius().items())


def _finish(total: int) -> int:
    # Signed Möbius accumulation must land on a count.
    if total < 0:
        raise ArithmeticError(f"count came out negative ({total}); defect upstream")
    return total


def _floor_values(n: int) -> list[int]:
    # The distinct n // t, t >= 1, in descending order: n // t while it
    # exceeds isqrt(n), then every q from isqrt(n) down to 1.
    s = isqrt(n)
    return [n // t for t in range(1, s + (n // s > s))] + list(range(s, 0, -1))


def _floor_count(n: int) -> int:
    s = isqrt(n)  # len(_floor_values(n)); s = n // s only when s^2 <= n < s^2 + s
    return 2 * s - (n // s == s)


def _adjoint(weights: dict[int, int], n: int) -> list[tuple[int, int]]:
    # The nonzero (r, W_r), r ascending, of the W with L^T W = w (see
    # weighted_count).  At m, taken in descending order, W_m is final; it
    # then leaves -(block length) * W_m at every m // j, j >= 2, one block
    # of constant m // j at a time.  W_q sits in a dict for q > isqrt(n)
    # and in a list indexed by q below.
    s = isqrt(n)
    floors = _floor_values(n)
    big = floors[:len(floors) - s]  # the floor values > s
    W = {q: weights.get(q, 0) for q in big}
    small = [weights.get(q, 0) for q in range(s + 1)]
    for m in floors[:-1]:  # m = 1 leaves nothing below it
        w = W[m] if m > s else small[m]
        if not w:
            continue
        j, stop = 2, m // (s + 1)  # m // j > s exactly while j <= stop
        while j <= stop:
            q = m // j
            last = m // q
            W[q] -= (last - j + 1) * w
            j = last + 1
        while j <= m:
            q = m // j
            last = m // q
            small[q] -= (last - j + 1) * w
            j = last + 1
    return ([(q, w) for q, w in enumerate(small) if w]
            + [(q, W[q]) for q in reversed(big) if W[q]])


def _term_sum(terms: list[tuple[int, int]], k: int | None) -> int:
    """Sum of w * g(r) over the (r, w) pairs of `terms`, r ascending.

    The powers 2^r are summed by merging neighbours pairwise, the upper one
    shifted by its offset above the lower: a round adds about max(r) bits
    in all, not per term.  A loop, as a recursive closure is a reference
    cycle that leaves each call's lists to the cyclic garbage collector.
    """
    if k is not None:
        return sum(w * comb(r, k) for r, w in terms)
    total = -sum(w for _, w in terms)
    while len(terms) > 1:
        merged = [(r, w + (v << (s - r)))
                  for (r, w), (s, v) in zip(terms[::2], terms[1::2])]
        terms = merged + terms[len(merged) * 2:]
    return total + (terms[0][1] << terms[0][0] if terms else 0)


def weighted_count(
    weights: dict[int, int], n: int, k: int | None, cache: MemoCache | None
) -> int:
    """Sum of weights[q] * F(q) over q in `weights`, F = relprime_subsets(., k).

    The keys must be floor values n // t of n; n and k are checked already.
    Grouping the (k-)subsets of {1..m} by their gcd j gives sum over j of
    F(m // j) = g(m): a unit lower-triangular system L F = g on the floor
    values.  So the sum is sum of W_r * g(r) with L^T W = w, and the
    adjoint pass finds W in O(n^(3/4)) small-integer steps, whatever k is.
    When `cache` knows F(1..n-1) for this k (a sweep from 1, or from k, as
    F(m) = 0 for m < k), the row F(n) = F(n-1) + sum over squarefree
    delta | n of mu(delta) * g'(n / delta) is appended instead, where
    g'(q) = 2^(q-1) or C(q-1, k-1) counts the subsets of {1..q} with
    largest element q, and F(q) is read off the rows.
    """
    if cache is None:
        return _finish(_term_sum(_adjoint(weights, n), k))
    rows = cache.table(("prefix", k))
    # The rows are F(lo..top): lo = 1, or k for a k first asked at n = k.
    lo = next(iter(rows)) if rows else (k if n == k else 1)
    top = lo + len(rows) - 1
    if top < n - 1:
        cache.misses += _floor_count(n)  # the floor values the pass walks
        return _finish(_term_sum(_adjoint(weights, n), k))
    if top < n:
        rows[n] = rows.get(n - 1, 0) + _finish(_mobius_sum(factorize(n), _top_term, k))
        cache.misses += 1
    else:
        cache.hits += 1
    if weights == {n: 1}:  # relprime_subsets: the row itself, so no copy is kept
        return rows.get(n, 0)
    return _finish(sum(w * rows.get(q, 0) for q, w in weights.items()))


def relprime_subsets(n: int, k: int | None = None, cache: MemoCache | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} with gcd 1.

    Equals the Möbius sum over d in 1..n of mu(d) * g(floor(n/d)); computed
    by weighted_count with the weight vector {n: 1}.  0 whenever k > n.
    """
    n, k = check_args(n, k)
    return weighted_count({n: 1}, n, k, cache)


def coprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} whose gcd is coprime to n.

    Sum over squarefree d | n of mu(d) * g(n/d).  With g(q) = 2^q - 1 the
    -1 terms cancel for n > 1 and leave 1 at n = 1: the lone subset {1},
    not the empty set.
    """
    n, k = check_args(n, k)
    return _finish(_mobius_sum(factorize(n), _term, k))
