"""Exact subset-counting functions over {1..n}.

relprime_subsets(n, k=None) -- nonempty subsets whose elements have gcd 1
coprime_subsets(n, k=None)  -- nonempty subsets whose gcd is coprime to n
relprime_column(n_max, k=None), coprime_column(n_max, k=None) -- n in 1..n_max

With k given, only the k-element subsets are counted.  Both functions are
one formula over the term g(q) = 2^q - 1 (all nonempty subsets of {1..q})
or g(q) = C(q, k) (its k-subsets).  All results are exact Python ints; the
unrestricted counts grow like 2^n, so nothing here may round.  The signed
sums are checked nonnegative before they are returned -- a negative total
would mean a defect, never a valid answer.

The count core, vector_count, returns the sum of w_q * F(q), F =
relprime_subsets(., k), over small-integer weights w_q on the floor values q
of n, held in t-indexed lists (floor_vectors): by an adjoint pass and one
big-integer sum, or by reading the prefix rows of a shared cache, which a
column may install whole.  relprime_subsets is the single weight 1 at q = n.
mu comes from one factorisation of n; nothing here reads a sieve, and a
column, one in-place divisor-sum inversion, factors nothing.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, isqrt

from .sieve import Factorization, check_args, factorize


class MemoCache:
    """Memo of subset counts shared across calls: one dict m -> value per family.

    The core keeps the prefix rows F(lo..N) for each k under the family
    ("prefix", k), appended per n or installed whole by relprime_column; the
    oracles keep their own values, per-n gcd histograms among them, under
    families the core never reads.  A cached value always equals a fresh
    recomputation.  `misses` counts the counts computed: prefix rows appended,
    or the _floor_count(n) floor_vectors entries an adjoint pass walks, not the
    rows a column installs.  `hits` counts the calls answered without computing
    any; histograms move neither.  Lookups and inserts are plain dict
    operations, so sharing one instance across threads behaves as if serialized.
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


def floor_vectors(n: int) -> tuple[list[int], list[int]]:
    # Zeroed (big, small), one entry per floor value of n: big[u] for n // u > isqrt(n),
    # u <= n // (isqrt(n) + 1), and small[q] for q <= isqrt(n); index 0 is padding.
    s = isqrt(n)
    return [0] * (n // (s + 1) + 1), [0] * (s + 1)


def _floor_count(n: int) -> int:
    return n // (isqrt(n) + 1) + isqrt(n)  # the entries of floor_vectors(n)


def _push(small: list[int], m: int, j: int, w: int) -> None:
    # -w into small[m // i] for i = j..m, all m // j <= isqrt(n): one division per
    # m // i > r = isqrt(m), then each q <= r takes its block length, the ends carried.
    r = isqrt(m)
    for i in range(j, m // (r + 1) + 1):
        small[m // i] -= w
    hi = m
    for q in range(1, r + 1):
        lo = m // (q + 1)
        small[q] -= (hi - lo) * w
        hi = lo


def _adjoint(big: list[int], small: list[int], n: int) -> list[tuple[int, int]]:
    # The nonzero (r, W_r), r ascending, of the W with L^T W = w (see vector_count), in place.
    # At m, descending, W_m is final; it leaves -(block length) * W_m at each m // j, j >= 2.
    T = len(big) - 1
    for t in range(1, T + 1):
        w = big[t]
        if w:
            for u in range(2 * t, T + 1, t):  # n // (t * j) > isqrt(n): no division
                big[u] -= w
            _push(small, n // t, T // t + 1, w)
    for m in range(len(small) - 1, 1, -1):  # m = 1 leaves nothing below it
        if small[m]:
            _push(small, m, 2, small[m])
    return ([(q, w) for q, w in enumerate(small) if w]
            + [(n // u, big[u]) for u in range(T, 0, -1) if big[u]])


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


def _rows(n: int, k: int | None, cache: MemoCache | None,
          fac: Factorization | None = None) -> dict[int, int] | None:
    # The prefix rows F(lo..n) for k (lo = 1, or k if first asked at n = k), else None: if
    # they reach n - 1, F(n) = F(n-1) + sum over squarefree delta | n of mu(delta) * g'(n / delta)
    # is appended, g'(q) = 2^(q-1) or C(q-1, k-1) the subsets of {1..q} with largest element q;
    # fac, when the caller holds it, is factorize(n).
    if cache is None:
        return None
    rows = cache.table(("prefix", k))
    lo = next(iter(rows)) if rows else (k if n == k else 1)
    top = lo + len(rows) - 1
    if top < n - 1:
        cache.misses += _floor_count(n)  # the floor values the adjoint pass walks
        return None
    if top < n:
        fac = factorize(n) if fac is None else fac
        rows[n] = rows.get(n - 1, 0) + _finish(_mobius_sum(fac, _top_term, k))
        cache.misses += 1
    else:
        cache.hits += 1
    return rows


def vector_count(big: list, small: list, fac: Factorization, k: int | None,
                 cache: MemoCache | None) -> int:
    """Sum of w * F(q) over the floor_vectors(n) entries, F = relprime_subsets(., k), n = fac.n.

    n and k are checked already; the lists are used up.  Grouping the (k-)subsets of
    {1..m} by gcd j gives sum over j of F(m // j) = g(m): L F = g, unit lower triangular
    on the floor values, so the sum is sum of W_r * g(r) with L^T W = w, which the adjoint
    pass solves in O(n^(3/4)) small-integer steps of one floor division each, whatever k
    is.  In a sweep the F(q) are read off the prefix rows.
    """
    n = fac.n
    rows = _rows(n, k, cache, fac)
    if rows is None:
        return _finish(_term_sum(_adjoint(big, small, n), k))
    return _finish(sum(w * rows.get(n // u, 0) for u, w in enumerate(big) if w)
                   + sum(w * rows.get(q, 0) for q, w in enumerate(small) if w))


def relprime_subsets(n: int, k: int | None = None, cache: MemoCache | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} with gcd 1.

    Equals the Möbius sum over d in 1..n of mu(d) * g(floor(n/d)); read off
    the prefix rows when a cache holds them, else the adjoint pass of the
    single weight 1 at q = n (big[1], or small[1] at n = 1).  0 whenever k > n.
    """
    n, k = check_args(n, k)
    rows = _rows(n, k, cache)
    if rows is not None:
        return rows.get(n, 0)
    big, small = floor_vectors(n)
    (small if n == 1 else big)[1] = 1
    return _finish(_term_sum(_adjoint(big, small, n), k))


def coprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} whose gcd is coprime to n.

    Sum over squarefree d | n of mu(d) * g(n/d).  With g(q) = 2^q - 1 the
    -1 terms cancel for n > 1 and leave 1 at n = 1: the lone subset {1},
    not the empty set.
    """
    n, k = check_args(n, k)
    return _finish(_mobius_sum(factorize(n), _term, k))


def _inverted(h: list[int]) -> list[int]:
    # u[1..N], each a count, with h[m] = sum over d | m of u[d], found in place on h (h[0]
    # unused): ascending, u[d] is final when reached and leaves -u[d] at each multiple.
    N = len(h) - 1
    for d in range(1, N // 2 + 1):
        u = h[d]
        for m in range(2 * d, N + 1, d):
            h[m] -= u
    _finish(min(h[1:], default=0))
    return h[1:]


def coprime_column(n_max: int, k: int | None = None) -> list[int]:
    """[coprime_subsets(n, k) for n in 1..n_max], with no factorisation.

    Grouping the (k-)subsets of {1..m} by e = gcd(gcd A, m) gives Phi_k(m / e)
    subsets e * B each: sum over d | m of Phi_k(d) = g(m), inverted over 1..n_max.
    """
    n_max, k = check_args(n_max, k)
    return _inverted([0] + [_term(m, k) for m in range(1, n_max + 1)])


def relprime_column(n_max: int, k: int | None = None, cache: MemoCache | None = None) -> list[int]:
    """[relprime_subsets(n, k) for n in 1..n_max], with no factorisation.

    Grouping the (k-)subsets of {1..m} with largest element m by their gcd gives
    sum over d | m of F(d) - F(d - 1) = g'(m): the column is the prefix sums of its
    inversion.  With a cache, its ("prefix", k) rows become exactly F(1..n_max).
    """
    n_max, k = check_args(n_max, k)
    column = list(accumulate(_inverted([0] + [_top_term(m, k) for m in range(1, n_max + 1)])))
    if cache is not None:
        cache._tables[("prefix", k)] = dict(enumerate(column, 1))
    return column
