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

The (d, delta) pairs and their weights phi(d) * mu(delta) are built prime
by prime from one factorisation of n.  The d = 1 layer is closed: grouping
the (k-)subsets of {1..N} by their gcd j gives sum over j <= N of
F(N // j) = g(N), g(N) = 2^N - 1 or C(N, k), so the layer is the sum over
squarefree delta | n of mu(delta) * g(n / delta) = Phi_k(n).  The weight
pass puts the d > 1 pairs' phi(d) * mu(delta) per member j = delta^-1
(mod d) on the weight w_q of q = n // (j * delta), in the t-indexed lists of
counts.floor_vectors.  With m = delta * j, the member condition is m = 1
(mod d) and delta | m, so summing over delta first and then over d | gcd(m - 1,
n) gives m the weight c(m) = (gcd(m - 1, n) - 1) * [gcd(m, n) = 1], and w_q is
the sum of c(m) over the m with n // m = q.  The pass takes one of two routes,
chosen from the number P = prod(e + 2) - 2^omega(n) of d > 1 pairs:
- few pairs (P^3 < 16 n: primes, p * q, prime powers): walk each pair's
  progression one block of constant n // m at a time (_add_progression);
- many pairs: one gcd per m coprime to n up to L = n // q0, q0 ~ sqrt(n /
  2P), read off a bytearray coprime mask; big[u] = c(u), and small[q] is a
  difference of the prefix sums H(x) of c, which below q0 take one
  multiply-add per pair: H(x) = sum of w * ((x // delta - a + d) // d),
  a = delta^-1 (mod d) (_mask_weights).
The routes give equal lists; the mask's fixed ~sqrt(n) steps lose to the
walk when the pairs are few.  The count core, counts.vector_count, returns
the sum of w_q * F(q): the sum over the subsets of gcd(gcd(A) - 1, n) - 1,
>= 0 and guarded as such.  Every n, prime powers included, takes this one
core; the paper's prime-power identity is the independent
oracle.prime_power_menon_sum.  menon_sum keeps nothing between calls: a sweep
over 1..n_max is menon_column, and the verify battery checks the two against
each other and the gcd-class oracle at every n of its formula-scale sweep.

menon_column needs no factorisation and no floor_vectors.  For a pair (d > 1,
squarefree delta coprime to d) with d * delta | n, let r = n / (d * delta) and
a = delta^-1 (mod d), 1 <= a < d: the progression's members j <= d * r are
a + d * i, i < r, so its term is V_{d,a}(r) = sum over i < r of
F(d * r // (a + d * i)), which depends on delta only through a.  Writing F(x) as
the sum of the steps f(q) = F(q) - F(q - 1), q <= x, and (a + d * i) * q <= d * r
as i * q + ceil(a * q / d) <= r, V_{d,a}(1..R) is F(d * r // a) plus the prefix
sums of a list that gets f(q) at r = q + ceil(a * q / d) and every q-th index
after: about R ln R list additions per distinct (d, a).  Row n is
Phi_k(n) plus the sum over its pairs of phi(d) * mu(delta) * V_{d,a}(n / (d * delta));
mu and phi come from the in-place divisor-sum inversion the count columns use,
F and Phi_k are read off relprime_column and coprime_column.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from math import gcd, isqrt
from operator import add, floordiv, mul, sub

from .counts import (_finish, _inverted, _mobius_sum, coprime_column, floor_vectors,
                     relprime_column, vector_count)
from .sieve import Factorization, check_args, factorize


@dataclass(frozen=True)
class MenonParams:
    """Arguments for one gcd-sum evaluation: n and optional k."""

    n: int
    k: int | None = None

    def __post_init__(self) -> None:
        n, k = check_args(self.n, self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


def menon_classic(n: int) -> int:
    """Classic identity value phi(n) * tau(n); oracle.residue_menon_sum is its definition."""
    n, _ = check_args(n)
    fac = factorize(n)
    return fac.phi * fac.tau


def _add_progression(big, small, n: int, delta: int, first: int, step: int, w: int) -> None:
    """Add w to the floor_vectors(n) entry of n // (delta * j), j = first (mod step).

    A j <= N = n // delta with delta * j < len(big) lands on big[delta * j], a range of
    stride delta * step; the rest jump member to member one block of constant N // j
    at a time: min(members, ~2 sqrt(N)) steps.
    """
    N = n // delta
    stop = min(N, (len(big) - 1) // delta)
    for u in range(delta * first, delta * stop + 1, delta * step):
        big[u] += w
    j = first if first > stop else stop + 1 + (first - stop - 1) % step
    while j <= N:
        q = N // j
        members = (N // q - j) // step + 1
        small[q] += w * members
        j += members * step


def _mask_weights(big, small, n: int, fac: Factorization, pairs, q0: int) -> None:
    """Set the zeroed floor_vectors(n) to the weights of `pairs`, from the coprime mask.

    pairs are the (d > 1, delta, w) of fac, n = fac.n; 1 <= q0 <= isqrt(n) + 1.  One gcd per
    m <= L = n // q0 coprime to n gives c(m) = gcd(m - 1, n) - 1: big[u] = c(u), and small[q] =
    H(n // q) - H(n // (q + 1)) for the prefix sums H of c, read off for q >= q0 (n // q <= L)
    and summed over the pairs below: the j <= x // delta with j = a (mod d) number
    (x // delta - a + d) // d = (x + delta * (d - a)) // (d * delta).
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
    shifts = [delta * (d - pow(delta, -1, d)) for d, delta, _ in pairs]
    strides = [d * delta for d, delta, _ in pairs]
    ws = [w for _, _, w in pairs]
    H = [sum(map(mul, ws, map(floordiv, map(add, repeat(n // q), shifts), strides)))
         for q in range(1, q0)]
    H += [acc[i] - i for i in (bisect_left(ms, n // q) for q in range(q0, len(small) + 1))]
    small[1:] = map(sub, H, H[1:])


def divisor_pairs(fac: Factorization) -> list[tuple[int, int, int]]:
    """(d, delta, phi(d) * mu(delta)) for all coprime d | n, squarefree delta | n.

    All prod(e + 2) of them; the gcd sums weigh those with d > 1, by block
    walk or coprime mask (bench's divisor-pairs= counts these), and sum the
    2^omega(n) with d = 1 in closed form.
    """
    # Each p^e || n goes into d as one of p^1..p^e, into delta, or into
    # neither, so every coprime pair is built once: prod(e + 2) triples.
    out = [(1, 1, 1)]
    for p, e in fac.factors:
        out += [(d * p**i, delta, w * (p - 1) * p ** (i - 1))
                for d, delta, w in out for i in range(1, e + 1)
                ] + [(d, delta * p, -w) for d, delta, w in out]
    return out


def menon_sum(n: int, k: int | None = None) -> int:
    """Subset gcd sum via the triple divisor sum (see module docstring).

    0 whenever k exceeds n.  Each call is cold; menon_column sweeps 1..n_max.
    """
    n, k = check_args(n, k)
    fac = factorize(n)
    # Phi_k(n), the d = 1 layer, plus the core's sum over the weights of the d > 1 triples.
    big, small = floor_vectors(n)
    pairs = [(d, delta, w) for d, delta, w in divisor_pairs(fac) if d > 1]
    P = len(pairs)
    if P**3 >= 16 * n:  # the measured crossover of the two weight routes
        # q0 balances the mask's ~n / q0 C-speed steps against the P * q0 multiply-adds below q0.
        _mask_weights(big, small, n, fac, pairs, max(isqrt(n // (2 * P)), 1))
    else:
        for d, delta, w in pairs:
            _add_progression(big, small, n, delta, pow(delta, -1, d), d, w)
    return vector_count(big, small, n, k) + _mobius_sum(fac, k)


def evaluate(params: MenonParams, _cache=None, /) -> int:
    """Evaluate the subset gcd sum for `params`: menon_sum(params.n, params.k).

    A second positional argument, the MemoCache of the earlier evaluate(params,
    cache), is accepted and ignored, so that its callers (perfbench's tests among
    them) still run; every evaluation is cold.
    """
    return menon_sum(params.n, params.k)


def _mu_phi(n_max: int) -> tuple[list[int], list[int]]:
    # [0, mu(1..n_max)] and [0, phi(1..n_max)], inverting sum over d | m of mu(d) = [m = 1]
    # and of phi(d) = m in place: no sieve, no factorisation.
    return ([0] + _inverted([0, 1] + [0] * (n_max - 1)),
            [0] + _inverted(list(range(n_max + 1))))


def _progression_sums(F: list[int], f: list[int], d: int, a: int, R: int) -> list[int]:
    """[0, V(1..R)], V(r) = sum over i < r of F(d * r // (a + d * i)); 1 <= a < d.

    F and f are [0, F(1..)] and their steps [0, f(1..)], long enough for d * R // a.
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
    return [F[d * r // a] + v for r, v in enumerate(accumulate(steps))]  # i = 0 is F(d r // a)


def menon_column(n_max: int, k: int | None = None) -> list[int]:
    """[menon_sum(n, k) for n in 1..n_max], with no factorisation.

    Each coprime pair (d > 1, squarefree delta) with d * delta <= n_max is visited
    once, with one inverse a = delta^-1 (mod d); its term at n = d * delta * r is
    phi(d) * mu(delta) * V_{d,a}(r), V_{d,a}(1..R) one prefix sum shared by the
    pairs of d with the same a (see the module docstring).  Each row is Phi_k(n),
    read off coprime_column, plus its guarded pair sum.
    """
    n_max, k = check_args(n_max, k)
    mu, phi = _mu_phi(n_max)
    F = [0] + relprime_column(n_max, k)
    f = [0] + list(map(sub, F[1:], F[:-1]))
    pair_sums = [0] * (n_max + 1)
    for d in range(2, n_max + 1):
        sums = {}  # a -> V_{d,a}, built at its smallest delta: the longest R
        for delta in range(1, n_max // d + 1):
            if mu[delta] and gcd(d, delta) == 1:
                a, w, step = pow(delta, -1, d), phi[d] * mu[delta], d * delta
                V = sums.get(a)
                if V is None:
                    V = sums[a] = _progression_sums(F, f, d, a, n_max // step)
                for r in range(1, n_max // step + 1):
                    pair_sums[step * r] += w * V[r]
    del F, f  # freed before the Phi_k column is built: a lower peak
    return [phik + _finish(total)
            for phik, total in zip(coprime_column(n_max, k), pair_sums[1:])]
