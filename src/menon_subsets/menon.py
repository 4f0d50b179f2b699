"""Menon-type gcd sums.

menon_classic(n)       -- sum of gcd(a-1, n) over a reduced residue system
                          mod n, which closes to phi(n) * tau(n)
menon_sum(n, k=None)   -- the same kind of sum taken over all nonempty
                          subsets A of {1..n} (or its k-element subsets)
                          whose gcd is coprime to n, each contributing
                          gcd(gcd(A) - 1, n)
menon_column(n_max, k=None) -- menon_sum(n, k) for n in 1..n_max

menon_sum evaluates a triple divisor sum that expresses the total through
the relatively prime subset counts F = relprime_subsets(., k):

    sum over d | n of phi(d) *
      sum over squarefree delta | n with gcd(delta, d) = 1 of mu(delta) *
        sum over j in 1..n/delta with delta * j = 1 (mod d) of
          F(floor(n / (j * delta)))

The d = 1 layer is closed: grouping the (k-)subsets of {1..N} by their gcd j gives
sum over j <= N of F(N // j) = g(N), g(N) = 2^N - 1 or C(N, k), so the layer is the
sum over squarefree delta | n of mu(delta) * g(n / delta) = Phi_k(n).  divisor_pairs
builds only the d > 1 pairs, prime by prime from one factorisation of n, each with
its weight phi(d) * mu(delta) and as the progression of its m = delta * j,
j = delta^-1 (mod d): m = m0 (mod stride), m0 = delta * (delta^-1 mod d), stride =
d * delta.  The weight pass puts a pair's weight per member m <= n on the weight w_q
of q = n // m, in the t-indexed lists of counts.floor_vectors.  The member condition
is m = 1 (mod d) and delta | m, so summing over delta first and then over
d | gcd(m - 1, n) gives m the weight c(m) = (gcd(m - 1, n) - 1) * [gcd(m, n) = 1],
and w_q is the sum of c(m) over the m with n // m = q.  The pass takes one of two
routes, chosen from the number P = prod(e + 2) - 2^omega(n) of d > 1 pairs:
- few pairs (P^3 < 16 n: primes, p * q, prime powers): walk each pair's
  progression one block of constant n // m at a time (_add_progression);
- many pairs: one gcd per m coprime to n up to L = n // q0, q0 ~ sqrt(n /
  2P), read off a bytearray coprime mask; big[u] = c(u), and small[q] is a
  difference of the prefix sums H(x) of c, which below q0 take one
  multiply-add per pair: H(x) = sum of w * ((x + stride - m0) // stride)
  (_mask_weights).
The routes give equal lists; the mask's fixed ~sqrt(n) steps lose to the walk when
the pairs are few.  The count core's adjoint pass turns the w_q into terms (r, W_r),
and the sum over the subsets of gcd(gcd(A) - 1, n) - 1 is the sum of W_r * g(r); one
counts._term_sum takes them and Phi_k(n)'s terms (n // delta, mu(delta)), each
C(r, k) once, and guards the two totals, each >= 0, apart.  Every n, prime powers
included, takes this one core; the paper's prime-power identity is the independent
oracle.prime_power_menon_sum.  menon_sum keeps nothing between calls: a sweep over
1..n_max is menon_column, which the verify battery checks against it and the
gcd-class oracle at every n of its formula-scale sweep.

menon_column needs no factorisation and no floor_vectors.  For a pair (d > 1,
squarefree delta coprime to d) with d * delta | n, let r = n / (d * delta) and
a = delta^-1 (mod d), 1 <= a < d: the progression's members j <= d * r are
a + d * i, i < r, so its term is V_{d,a}(r) = sum over i < r of
F(d * r // (a + d * i)), which depends on delta only through a.  Every term takes
one form, V(r) = F(d * r // a) + T(r): the member i = 0 plus the tail T of the rest,
picked once per pair, R = n_max // (d * delta).  If a * (R - 1) < d, every i >= 1 has
i > a * (r - 1) / d, so (r - 1) / i < d * r / (a + d * i) < r / i and
d * r // (a + d * i) = (r - 1) // i; by the gcd-class identity of the d = 1 layer
T(r) = g(r - 1).  Such a pair has R <= d, so g is needed only up to isqrt(n_max).
Else, writing F(x) as the sum of the steps f(q) = F(q) - F(q - 1), q <= x, and
(a + d * i) * q <= d * r as i * q + ceil(a * q / d) <= r, T(1..R) is the prefix sums
of a list that gets f(q) at r = q + ceil(a * q / d) and every q-th index after: about
R ln R list additions per distinct (d, a).  A pair with R <= 2 stays unrolled, the
faster form: V(1) = F(d // a) and, as d < a + d < 2 * d, V(2) = F(2 * d // a) + F(1).
The delta = 1 pairs (a = 1) open with the member F(n); by Gauss's sum over d | n of
phi(d) = n these sum to (n - 1) * F(n), one product per row, so those pairs add only
their tails phi(d) * T_{d,1}(r), r >= 2, with no gcd and no inverse, and d runs
only to n_max // 2 (a larger d has only delta = 1, with R = 1).  delta >= 2 walks the
squarefree numbers in ascending order while d * delta <= n_max.  Row n is Phi_k(n) plus
the sum over its pairs of phi(d) * mu(delta) * V_{d,a}(n / (d * delta)); mu and phi come
from the in-place divisor-sum inversion the count columns use, f from counts._relprime_steps
and F as its prefix sums, Phi_k from coprime_column, or at k None Phi(n) = 2 f(n) - [n = 1]
(that inversion turns 2^(n - 1) into f(n), and 2^n - 1 = 2 * 2^(n - 1) - 1).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress, repeat
from math import gcd, isqrt, prod
from operator import add, floordiv, mul, sub

from .counts import (_adjoint, _binomials, _finish, _inverted, _mobius_terms, _relprime_steps,
                     _term_sum, coprime_column, floor_vectors)
from .sieve import Factorization, check_args, factorize


class MenonParams:
    """n and optional k, checked at construction: the benchmark's calling form
    evaluate(MenonParams(n, k)) of menon_sum(n, k), kept for it alone."""

    def __init__(self, n: int, k: int | None = None) -> None:
        self.n, self.k = check_args(n, k)


def menon_classic(n: int) -> int:
    """Classic identity value phi(n) * tau(n); oracle.residue_menon_sum is its definition."""
    return prod(p ** (e - 1) * (p - 1) * (e + 1) for p, e in factorize(n).factors)


def _add_progression(big, small, n: int, m0: int, stride: int, w: int) -> None:
    """Add w to the floor_vectors(n) entry of n // m, m <= n, m = m0 (mod stride).

    An m < len(big) lands on big[m]; the rest jump member to member one block of
    constant n // m at a time: min(members, ~2 sqrt(n)) steps.
    """
    stop = len(big) - 1
    for m in range(m0, stop + 1, stride):
        big[m] += w
    m = m0 if m0 > stop else stop + 1 + (m0 - stop - 1) % stride
    while m <= n:
        q = n // m
        members = (n // q - m) // stride + 1
        small[q] += w * members
        m += members * stride


def _mask_weights(big, small, n: int, fac: Factorization, pairs, q0: int) -> None:
    """Set the zeroed floor_vectors(n) to the weights of `pairs`, from the coprime mask.

    pairs are the divisor_pairs of fac, n = fac.n; 1 <= q0 <= isqrt(n) + 1.  One gcd per
    m <= L = n // q0 coprime to n gives c(m) = gcd(m - 1, n) - 1: big[u] = c(u), and small[q] =
    H(n // q) - H(n // (q + 1)) for the prefix sums H of c, read off for q >= q0 (n // q <= L)
    and summed over the pairs below: a pair's members m <= x number
    (x + stride - m0) // stride, as 0 < m0 < stride.
    """
    L = n // q0
    mask = bytearray([1]) * L  # mask[m - 1] = [gcd(m, n) = 1]
    for p, _ in fac.factors:
        mask[p - 1::p] = bytes(L // p)
    ms = list(compress(range(L), mask))  # m - 1 for the coprime m <= L, ascending
    gs = list(map(gcd, ms, repeat(n)))
    for m1, g in zip(ms[:bisect_left(ms, len(big) - 1)], gs):
        big[m1 + 1] = g - 1
    acc = list(accumulate(gs, initial=0))
    shifts = [stride - m0 for m0, stride, _ in pairs]
    strides = [stride for _, stride, _ in pairs]
    ws = [w for _, _, w in pairs]
    H = [sum(map(mul, ws, map(floordiv, map(add, repeat(n // q), shifts), strides)))
         for q in range(1, q0)]
    H += [acc[i] - i for i in (bisect_left(ms, n // q) for q in range(q0, len(small) + 1))]
    small[1:] = map(sub, H, H[1:])


def divisor_pairs(fac: Factorization) -> list[tuple[int, int, int]]:
    """(m0, stride, phi(d) * mu(delta)), the progression m = m0 (mod stride) both weight routes
    walk, for the coprime d > 1, d | n, and squarefree delta | n: m0 = delta * (delta^-1 mod d),
    stride = d * delta.  Each p^e || n goes into d as one of p^1..p^e, into delta, or into
    neither, so each of the prod(e + 2) - 2^omega(n) pairs is built once."""
    out, ones = [], [(1, 1, 1)]  # the pairs with d > 1 so far, and those with d = 1
    for p, e in fac.factors:
        powers = [(q, q - q // p) for q in accumulate(repeat(p, e), mul)]  # (p^i, phi(p^i))
        out += [(d * q, delta, w * phi_q) for d, delta, w in out + ones for q, phi_q in powers
                ] + [(d, delta * p, -w) for d, delta, w in out]
        ones += [(1, delta * p, -w) for _, delta, w in ones]
    return [(delta * pow(delta, -1, d), d * delta, w) for d, delta, w in out]


def menon_sum(n: int, k: int | None = None) -> int:
    """Subset gcd sum via the triple divisor sum (see module docstring).

    0 whenever k exceeds n.  Each call is cold; menon_column sweeps 1..n_max.
    """
    n, k = check_args(n, k)
    fac = factorize(n)
    # Phi_k(n), the d = 1 layer, and the core's sum over the weights of the d > 1 pairs.
    big, small = floor_vectors(n)
    pairs = divisor_pairs(fac)
    if len(pairs)**3 >= 16 * n:  # the measured crossover of the two weight routes
        # q0 balances the mask's ~n / q0 C-speed steps against the P * q0 multiply-adds below q0.
        _mask_weights(big, small, n, fac, pairs, max(isqrt(n // (2 * len(pairs))), 1))
    else:
        for m0, stride, w in pairs:
            _add_progression(big, small, n, m0, stride, w)
    return _term_sum(k, _mobius_terms(fac), _adjoint(big, small, n))


def evaluate(params: MenonParams, _cache=None, /) -> int:
    """menon_sum(params.n, params.k), in the benchmark's calling form evaluate(params, sieve).

    The second positional argument is accepted and ignored: every evaluation is cold.
    The package calls menon_sum itself.
    """
    return menon_sum(params.n, params.k)


def _mu_phi(n_max: int) -> tuple[list[int], list[int]]:
    # [0, mu(1..n_max)] and [0, phi(1..n_max)], inverting sum over d | m of mu(d) = [m = 1]
    # and of phi(d) = m in place: no sieve, no factorisation.
    return ([0] + _inverted([0, 1] + [0] * (n_max - 1)),
            [0] + _inverted(list(range(n_max + 1))))


def _progression_tails(f: list[int], d: int, a: int, R: int) -> list[int]:
    """[0, T(1..R)], T(r) = sum over 1 <= i < r of F(d * r // (a + d * i)); 1 <= a < d.

    f is [0, f(1..)], the steps of F, long enough for R.
    """
    steps = [0] * (R + 1)  # f(q) at each r = i * q + ceil(a * q / d), i >= 1
    for q in range(1, R):
        c = q - (-a * q // d)
        if c > R:
            break
        fq = f[q]
        if fq:
            for r in range(c, R + 1, q):
                steps[r] += fq
    return list(accumulate(steps))


def menon_column(n_max: int, k: int | None = None) -> list[int]:
    """[menon_sum(n, k) for n in 1..n_max], with no factorisation.

    Each coprime pair (d > 1, squarefree delta) with d * delta <= n_max is visited
    once; its term at n = d * delta * r is phi(d) * mu(delta) * V_{d,a}(r),
    V(r) = F(d * r // a) + T(r), a = delta^-1 (mod d), with T = g(. - 1) if
    a * (R - 1) < d, R = n_max // (d * delta), else the tail list T_{d,a}(1..R) shared
    by the pairs of d with the same a (see the module docstring).  The delta = 1 pairs
    add only their tails, and their first members (n - 1) * F(n) per row; a pair with
    delta >= 2 takes one inverse, unrolled if R <= 2.  Each row is Phi_k(n), off the
    F steps at k None, else off coprime_column, plus its guarded pair sum.
    """
    n_max, k = check_args(n_max, k)
    mu, phi = _mu_phi(n_max)
    f = [0] + _relprime_steps(n_max, k)
    F = list(accumulate(f))
    # g[r] = g(r - 1), g(N) = 2^N - 1 or C(N, k), up to isqrt(n_max): a closed pair has R <= d
    top = isqrt(n_max)
    g = [0] + ([(1 << r) - 1 for r in range(top + 1)] if k is None else _binomials(top, k))
    pair_sums = [0] * (n_max + 1)
    squarefree = [delta for delta in range(2, n_max // 2 + 1) if mu[delta]]
    for d in range(2, n_max // 2 + 1):  # a larger d has only delta = 1, with R = 1
        # a -> T_{d,a}, built at its smallest delta, the longest R; delta = 1 has a = 1,
        # closed (a * (R - 1) < d) if R <= d
        R, tails, T, w = n_max // d, {}, g, phi[d]
        if R > d:
            T = tails[1] = _progression_tails(f, d, 1, R)
        for r in range(2, R + 1):  # the delta = 1 tails; T(1) = 0
            pair_sums[d * r] += w * T[r]
        for delta in squarefree:
            step = d * delta
            if step > n_max:
                break
            if gcd(d, delta) == 1:
                a, w, R = pow(delta, -1, d), phi[d] * mu[delta], n_max // step
                if R <= 2:  # unrolled, faster than the loop below (see the module docstring)
                    pair_sums[step] += w * F[d // a]
                    if R == 2:
                        pair_sums[2 * step] += w * (F[2 * d // a] + F[1])
                    continue
                T = g if a * (R - 1) < d else tails.get(a)  # g for a closed pair
                if T is None:
                    T = tails[a] = _progression_tails(f, d, a, R)
                for r in range(1, R + 1):
                    pair_sums[step * r] += w * (F[d * r // a] + T[r])
    for n in range(2, n_max + 1):  # the delta = 1 first members, added last: a lower peak
        pair_sums[n] += (n - 1) * F[n]
    del F  # freed before Phi_k is built, and f with it: a lower peak
    if k is None:  # Phi(m) = 2 f(m) - [m = 1] (see the module docstring)
        phik = [s + s for s in f[1:]]
        phik[0] -= 1
        del f
    else:
        del f
        phik = coprime_column(n_max, k)
    return [p + _finish(total) for p, total in zip(phik, pair_sums[1:])]
