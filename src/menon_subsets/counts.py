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
big-integer sum.  relprime_subsets is the single weight 1 at q = n.  Every
per-n call is cold: it keeps nothing between calls, and a sweep over n reads
a column instead.  mu comes from one factorisation of n; nothing here reads
a sieve.  A column factors nothing:
it is one in-place divisor-sum inversion over 1..n_max (_inverted), about
n_max ln n_max small-integer subtractions, plus one term g per m, a binomial
stepped from the one before (C(m, k) = C(m - 1, k) * m // (m - k)); the gcd-sum
column, menon.menon_column, reads its F and Phi_k off these two.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, isqrt

from .sieve import Factorization, check_args, factorize


class MemoCache:
    """The oracles' memo: one dict m -> value per family, shared across their calls.

    The oracle module keeps its per-n gcd histograms under ("enum", k) and its
    Möbius-sum counts under ("mobius", k); no counting or gcd-sum function
    reads or fills one.  A cached value always equals a fresh recomputation.
    `misses` counts the Möbius sums computed and `hits` those answered from the
    memo; histograms move neither.  It lives here, below the oracles, because
    the layering lets the oracles import this container and nothing else from
    the core, and the benchmark's tracer finds it as counts.MemoCache.  Lookups
    and inserts are plain dict operations, so sharing one instance across
    threads behaves as if serialized.
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


def _mobius_sum(fac: Factorization, k: int | None) -> int:
    # Phi_k(n) = sum over squarefree delta | n of mu(delta) * g(n // delta)
    return sum(m * _term(fac.n // d, k) for d, m in fac.mobius().items())


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
    # -w into small[m // i] for i = j..m, all m // j < len(small) and every m // i <= r =
    # isqrt(m) at i >= j: one division per m // i > r, then each q <= r takes its block length.
    r = isqrt(m)
    for i in range(j, m // (r + 1) + 1):
        small[m // i] -= w
    hi = m
    for q in range(1, r + 1):
        lo = m // (q + 1)
        small[q] -= (hi - lo) * w
        hi = lo


def _dense_solve(x: list[int]) -> list[tuple[int, int]]:
    # The nonzero (q, W_q) with L^T W = x on all of 1..D, x[0] unused: L = P Z P^-1 there (the
    # F(m // j) take F(q) - F(q-1) once per q * j <= m), P the prefix and Z the divisor sums.
    x = list(accumulate(reversed(x), initial=0))[::-1]  # P^T: suffix sums, then x[D + 1] = 0
    for i in range(len(x) // 2, 0, -1):  # Z^-T: less the sum over the proper multiples
        x[i] -= sum(x[2 * i::i])
    return [(q, x[q] - x[q + 1]) for q in range(1, len(x) - 1) if x[q] != x[q + 1]]  # P^-T


def _adjoint(big: list[int], small: list[int], n: int) -> list[tuple[int, int]]:
    # The nonzero (r, W_r), r ascending, of the W with L^T W = w (see vector_count), in place.
    # Above D ~ n^(2/3), at m = n // t, ascending t <= U, W_m is final: it leaves -(block length)
    # * W_m at each m // j, j >= 2, all <= D once t * j > U.  W is 0 off the floor values of n.
    D = max(len(small) - 1, int(0.6 * n ** (2 / 3)))  # c = 0.6 balances the two passes
    U = n // (D + 1)
    x = small + [0] * (D + 1 - len(small))
    for u in range(U + 1, len(big)):
        x[n // u] = big[u]
    for t in range(1, U + 1):
        w = big[t]
        if w:
            for u in range(2 * t, U + 1, t):  # n // (t * j) > D: no division
                big[u] -= w
            _push(x, n // t, U // t + 1, w)
    return _dense_solve(x) + [(n // u, big[u]) for u in range(U, 0, -1) if big[u]]


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


def vector_count(big: list, small: list, n: int, k: int | None) -> int:
    """Sum of w * F(q) over the floor_vectors(n) entries, F = relprime_subsets(., k).

    n and k are checked already; the lists are used up.  Grouping the (k-)subsets of
    {1..m} by gcd j gives sum over j of F(m // j) = g(m): L F = g, unit lower triangular
    on the floor values, so the sum is sum of W_r * g(r) with L^T W = w, which the adjoint
    pass solves in small integers, whatever k is: 4n / sqrt(D) floor divisions above D ~ 0.6
    n^(2/3), then D / 2 C-speed slice sums.
    """
    return _finish(_term_sum(_adjoint(big, small, n), k))


def relprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} with gcd 1.

    Equals the Möbius sum over d in 1..n of mu(d) * g(floor(n/d)); here the
    adjoint pass of the single weight 1 at q = n (big[1], or small[1] at
    n = 1).  0 whenever k > n.
    """
    n, k = check_args(n, k)
    big, small = floor_vectors(n)
    (small if n == 1 else big)[1] = 1
    return vector_count(big, small, n, k)


def coprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} whose gcd is coprime to n.

    Sum over squarefree d | n of mu(d) * g(n/d).  With g(q) = 2^q - 1 the
    -1 terms cancel for n > 1 and leave 1 at n = 1: the lone subset {1},
    not the empty set.
    """
    n, k = check_args(n, k)
    return _finish(_mobius_sum(factorize(n), k))


def _inverted(h: list[int]) -> list[int]:
    # u[1..N] with h[m] = sum over d | m of u[d], found in place on h (h[0] unused):
    # ascending, u[d] is final when reached and leaves -u[d] at each multiple.  Signed;
    # a caller whose u are counts guards them.
    N = len(h) - 1
    for d in range(1, N // 2 + 1):
        u = h[d]
        for m in range(2 * d, N + 1, d):
            h[m] -= u
    return h[1:]


def _binomials(m_max: int, k: int) -> list[int]:
    # [C(m, k) for m in 0..m_max], k >= 0, each stepped from the one before, C(m, k) =
    # C(m - 1, k) * m // (m - k): one multiply and one division per row, not one comb.
    if k > m_max:
        return [0] * (m_max + 1)
    return [0] * k + list(accumulate(range(k + 1, m_max + 1),
                                     lambda c, m: c * m // (m - k), initial=1))


def coprime_column(n_max: int, k: int | None = None) -> list[int]:
    """[coprime_subsets(n, k) for n in 1..n_max], with no factorisation.

    Grouping the (k-)subsets of {1..m} by e = gcd(gcd A, m) gives Phi_k(m / e)
    subsets e * B each: sum over d | m of Phi_k(d) = g(m), inverted over 1..n_max.
    """
    n_max, k = check_args(n_max, k)
    column = _inverted([0] + [_term(m, k) for m in range(1, n_max + 1)] if k is None
                       else _binomials(n_max, k))  # h[0] = C(0, k) = 0 is unused
    _finish(min(column))
    return column


def relprime_column(n_max: int, k: int | None = None) -> list[int]:
    """[relprime_subsets(n, k) for n in 1..n_max], with no factorisation.

    Grouping the (k-)subsets of {1..m} with largest element m by their gcd gives
    sum over d | m of F(d) - F(d - 1) = g'(m): the column is the prefix sums of its
    inversion.
    """
    n_max, k = check_args(n_max, k)
    steps = _inverted([0] + ([_top_term(m, k) for m in range(1, n_max + 1)] if k is None
                             else _binomials(n_max - 1, k - 1)))
    _finish(min(steps))
    return list(accumulate(steps))
