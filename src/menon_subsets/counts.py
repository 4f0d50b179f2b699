"""Exact subset-counting functions over {1..n}.

relprime_subsets(n, k=None) -- nonempty subsets whose elements have gcd 1
coprime_subsets(n, k=None)  -- nonempty subsets whose gcd is coprime to n
relprime_column(n_max, k=None), coprime_column(n_max, k=None) -- n in 1..n_max

With k given, only the k-element subsets are counted.  Both functions are
one formula over the term g(q) = 2^q - 1 (all nonempty subsets of {1..q})
or g(q) = C(q, k) (its k-subsets).  All results are exact; the unrestricted
counts grow like 2^n, so nothing here may round.  They are Python ints, except
that an unrestricted column may be built from another exact unit `one`, e.g.
decimal.Decimal(1) under a context that traps rounding, whose values then print
in linear time.  The signed sums are checked nonnegative before they are
returned -- a negative total would mean a defect, never a valid answer.

The count core sums w_q * F(q), F = relprime_subsets(., k), over small-integer weights w_q
on the floor values q of n, held in t-indexed lists (floor_vectors), in two steps: an adjoint
pass to terms (r, W_r), _adjoint, and one term evaluator, _term_sum, which sums w * g(r) over
one or more term lists, each C(r, k) once per distinct r, and guards each list's total.  The
adjoint walks odd j only (sum over odd j of F(m // j) = g(m) - g(m // 2)): 2 sqrt(2) n / sqrt(D)
divisions above D ~ 0.6 n^(2/3), none for range(3t, U + 1, 2t), D / 3 slice sums x[3i::2i]
below, then the unfold W_r = W'_r - W'_2r - W'_(2r+1).  relprime_subsets is the weight 1 at
q = n; coprime_subsets sums the Möbius terms (n // delta, mu(delta)), and menon.menon_sum both.
Per-n calls are cold and keep nothing; a sweep over n reads a column.  mu comes from one
factorisation of n; nothing here reads a sieve.  A column factors nothing: it is one in-place
divisor-sum inversion over 1..n_max (_inverted), a slice pass per prime p * p <= n_max and the
larger primes per nonzero entry, about n_max ln ln n_max subtractions, plus one term g per m, a
power of 2 or a binomial, each stepped from the one before (2^m = 2^(m - 1) + 2^(m - 1),
C(m, k) = C(m - 1, k) * m // (m - k)).  _relprime_steps inverts 2^(m - 1) or C(m - 1, k - 1) into
the F steps f(m) = F(m) - F(m - 1): relprime_column sums them, and menon.menon_column reads F and
f off them, and Phi_k off coprime_column with k given, or at k None as 2 f(m) - [m = 1].
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress, islice
from math import comb, isqrt
from operator import sub

from .sieve import Factorization, check_args, factorize


class MemoCache(dict):
    """The oracles' memo: a dict (tag, n, k) -> value, shared across their calls.

    The oracle module keeps its per-n gcd histograms under ("enum", n, k) and its
    Möbius-sum counts under ("mobius", n, k); no counting or gcd-sum function
    reads or fills one.  A cached value always equals a fresh recomputation.
    `misses` counts the Möbius sums computed and `hits` those answered from the
    memo; histograms move neither.  It lives here, below the oracles, because
    the layering lets the oracles import this container and nothing else from
    the core, and the benchmark's tracer finds it as counts.MemoCache.  Lookups
    and inserts are plain dict operations, so sharing one instance across
    threads behaves as if serialized.
    """

    hits = misses = 0


def _mobius_terms(fac: Factorization) -> list[tuple[int, int]]:
    # Phi_k(n)'s terms (n // delta, mu(delta)), squarefree delta | n, n // delta ascending.
    terms = [(fac.n, 1)]
    for p, _ in fac.factors:
        terms += [(r // p, -m) for r, m in terms]
    return sorted(terms)


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


def _push(small: list[int], m: int, j: int, w: int) -> None:
    # -w into small[m // i] for odd i = j..m, all m // j < len(small), j <= m // (r + 1) + 1 for
    # r = isqrt(m // 2): one division per odd i <= m // (r + 1), then each q <= r its odd count.
    r = isqrt(m // 2)
    for i in range(j | 1, m // (r + 1) + 1, 2):
        small[m // i] -= w
    hi = (m + 1) // 2
    for q in range(1, r + 1):
        lo = (m // (q + 1) + 1) // 2
        small[q] -= (hi - lo) * w
        hi = lo


def _dense_solve(x: list[int]) -> list[int]:
    # [W_1, .., W_D], L^T W = x on all of 1..D, x[0] unused, by L' = P Z' P^-1 there (the odd-j
    # F(m // j) take F(q) - F(q-1) once per q * j <= m), P the prefix, Z' the odd divisor sums.
    x = [*accumulate(reversed(x), initial=0)][::-1]  # P^T: suffix sums, then x[D + 1] = 0
    for i in range((len(x) - 2) // 3, 0, -1):  # Z'^-T: less the sum over the odd proper multiples
        x[i] -= sum(x[3 * i::2 * i])
    h = (len(x) + 1) // 2  # the unfold W_r = W'_r - W'_2r - W'_(2r+1): y_r - y_2r, y = P^T W'
    x[1:h] = map(sub, x[1:h], x[2::2])
    return [*map(sub, x[1:-1], x[2:])]  # P^-T; a display, unlike list(), adds no gc count


def _adjoint(big: list[int], small: list[int], n: int) -> list[tuple[int, int]]:
    # The nonzero (r, W_r), r ascending, of the W with L^T W = w, in place on the weights w of
    # floor_vectors(n).  Grouping the (k-)subsets of {1..m} by gcd j gives sum over j of
    # F(m // j) = g(m): L F = g, unit lower triangular on the floor values, so the sum of
    # w * F(q) is the sum of W_r * g(r) (_term_sum), whatever k is.  The odd j alone give
    # L' F = g(m) - g(m // 2), L' = (I - S) L, (S v)(m) = v(m // 2): W_r = W'_r - W'_2r
    # - W'_(2r+1), L'^T W' = w, 0 off the floor values.  Above D ~ 0.6 n^(2/3), ascending t <= U,
    # W'_m at m = n // t is final and leaves -(odd block length) * W'_m at each m // j, odd j >= 3.
    D = max(len(small) - 1, int(0.6 * n ** (2 / 3)))  # c = 0.6 balances the two passes
    U = n // (D + 1)
    x = small + [0] * (D + 1 - len(small))
    for u in range(U + 1, len(big)):
        x[n // u] = big[u]
    for t in range(1, U + 1):
        w = big[t]
        if w:
            for u in range(3 * t, U + 1, 2 * t):  # n // (t * j) > D: no division
                big[u] -= w
            _push(x, n // t, U // t + 1, w)
    x = _dense_solve(x)  # unfolded on 1..D; W' above D leaves n // 2t, read before it unfolds
    for t in range(U, 0, -1):
        if 2 * t > U:
            x[n // (2 * t) - 1] -= big[t]
        else:
            big[2 * t] -= big[t]
    return ([(q, w) for q, w in enumerate(x, 1) if w]
            + [(n // u, big[u]) for u in range(U, 0, -1) if big[u]])


def _term_sum(k: int | None, *lists: list[tuple[int, int]]) -> int:
    """Sum over `lists` of each one's guarded total of w * g(r) over its (r, w), r ascending.

    The C(r, k) of all lists but the last are taken once per distinct r and shared: with
    distinct r in the last, each C(r, k) is taken once.  The powers are summed as
    sum(w << r) - sum(w) in ascending r, so each addition costs about r bits: over the
    floor values r of n, O(n log n) bit work in all.
    """
    if k is not None:
        g = {r: comb(r, k) for r in {r for terms in lists[:-1] for r, _ in terms}}
        return sum(_finish(sum([w * g[r] if r in g else w * comb(r, k) for r, w in terms]))
                   for terms in lists)
    return sum(_finish(sum([w << r for r, w in terms]) - sum([w for _, w in terms]))
               for terms in lists)


def relprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} with gcd 1.

    Equals the Möbius sum over d in 1..n of mu(d) * g(floor(n/d)); here the
    adjoint pass of the single weight 1 at q = n (big[1], or small[1] at
    n = 1).  0 whenever k > n.
    """
    n, k = check_args(n, k)
    big, small = floor_vectors(n)
    (small if n == 1 else big)[1] = 1
    return _term_sum(k, _adjoint(big, small, n))


def coprime_subsets(n: int, k: int | None = None) -> int:
    """Number of nonempty (k-element) subsets of {1..n} whose gcd is coprime to n.

    Sum over squarefree d | n of mu(d) * g(n/d).  With g(q) = 2^q - 1 the
    -1 terms cancel for n > 1 and leave 1 at n = 1: the lone subset {1},
    not the empty set.
    """
    n, k = check_args(n, k)
    return _term_sum(k, _mobius_terms(factorize(n)))


def _inverted(h: list[int]) -> list[int]:
    # u[1..N] with h[m] = sum over d | m of u[d], found in place on h (h[0] unused) by the
    # Euler product mu = prod over primes p of (1 - [p]), about N ln ln N subtractions: a
    # slice pass h[m] -= h[m // p] per prime p * p <= N, then the primes above sqrt(N)
    # per j, skipping j with h[j] = 0.  h and u are 0 below the first nonzero h[j0], so a
    # pass starts at m = p * j0 and only p <= N // j0 run.  Signed; a caller whose u are
    # counts guards them.
    N = len(h) - 1
    j0 = next(compress(range(1, N + 1), islice(h, 1, None)), N + 1)
    composite = bytearray(N // j0 + 1)  # composite[c] = 1 once a prime p, p * p <= c, passed
    large = []
    for p in range(2, N // j0 + 1):
        if composite[p]:
            continue
        if p * p <= N:  # m // p may be a multiple of p: the slice reads all before it writes
            composite[p * p::p] = b"\1" * len(range(p * p, N // j0 + 1, p))
            h[p * j0::p] = map(sub, h[p * j0::p], h[j0:N // p + 1])
        else:
            large.append(p)
    # A large p reads h[j], j <= N // p < large[0], and writes h[p * j] >= large[0]: no pass
    # writes an h[j] that any of them reads, so they run in any order, all of one j at a time.
    for j in range(j0, N // large[0] + 1 if large else 0):
        u = h[j]
        if u:
            for p in large[:bisect_right(large, N // j)]:
                h[p * j] -= u
    return h[1:]


def _doublings(m_max: int, unit):
    # [0, unit, 2 unit, 4 unit, ..., 2^(m_max - 1) unit], m_max >= 1, each the one before
    # added to itself: exact in any exact number type.
    return [0] + list(accumulate(range(m_max - 1), lambda x, _: x + x, initial=unit))


def _binomials(m_max: int, k: int) -> list[int]:
    # [C(m, k) for m in 0..m_max], k >= 0, each stepped from the one before, C(m, k) =
    # C(m - 1, k) * m // (m - k): one multiply and one division per row, not one comb.
    if k > m_max:
        return [0] * (m_max + 1)
    return [0] * k + list(accumulate(range(k + 1, m_max + 1),
                                     lambda c, m: c * m // (m - k), initial=1))


def coprime_column(n_max: int, k: int | None = None, *, one=1) -> list:
    """[coprime_subsets(n, k) for n in 1..n_max], with no factorisation.

    Grouping the (k-)subsets of {1..m} by e = gcd(gcd A, m) gives Phi_k(m / e)
    subsets e * B each: sum over d | m of Phi_k(d) = g(m), inverted over 1..n_max.
    With k None the column is built in the number type of `one` (int 1 by default).
    """
    n_max, k = check_args(n_max, k)
    if k is None:  # the -1 of g(m) = 2^m - 1 inverts to -[m = 1]: invert 2^m alone
        column = _inverted(_doublings(n_max, 2 * one))
        column[0] -= 1
    else:
        column = _inverted(_binomials(n_max, k))  # h[0] = C(0, k) = 0 is unused
    _finish(min(column))
    return column


def _relprime_steps(n_max: int, k: int | None, one=1) -> list:
    # [f(1..n_max)], f(m) = F(m) - F(m - 1), guarded: grouping the (k-)subsets of {1..m} with
    # largest element m by their gcd gives sum over d | m of f(d) = g'(m), 2^(m - 1) or
    # C(m - 1, k - 1), inverted here; with k None in the number type of `one`.
    steps = _inverted(_doublings(n_max, one) if k is None
                      else [0] + _binomials(n_max - 1, k - 1))
    _finish(min(steps))
    return steps


def relprime_column(n_max: int, k: int | None = None, *, one=1) -> list:
    """[relprime_subsets(n, k) for n in 1..n_max]: the prefix sums of the F steps, with no
    factorisation.  With k None it is built in the number type of `one` (int 1 by default)."""
    n_max, k = check_args(n_max, k)
    return list(accumulate(_relprime_steps(n_max, k, one)))
