"""Menon-type gcd sums.

menon_classic(n)       -- sum of gcd(a-1, n) over a reduced residue system
                          mod n, which closes to phi(n) * tau(n)
menon_sum(n, k=None)   -- the same kind of sum taken over all nonempty
                          subsets A of {1..n} (or its k-element subsets)
                          whose gcd is coprime to n, each contributing
                          gcd(gcd(A) - 1, n)

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
pass walks only the d > 1 progressions j = delta^-1 (mod d), adding
phi(d) * mu(delta) per member to the weight w_q of q = n // (j * delta) in
the t-indexed lists of counts.floor_vectors.  The count core,
counts.vector_count, returns the sum of w_q * F(q): the sum over the subsets
of gcd(gcd(A) - 1, n) - 1, >= 0 and guarded as such.  Every n, prime powers
included, takes this one route; the paper's prime-power identity is the
independent oracle.prime_power_menon_sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import MemoCache, _mobius_sum, _term, floor_vectors, vector_count
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


def divisor_pairs(fac: Factorization) -> list[tuple[int, int, int]]:
    """(d, delta, phi(d) * mu(delta)) for all coprime d | n, squarefree delta | n.

    All prod(e + 2) of them, as bench's divisor-pairs= counts; the gcd sums
    walk those with d > 1 and sum the 2^omega(n) with d = 1 in closed form.
    """
    # Each p^e || n goes into d as one of p^1..p^e, into delta, or into
    # neither, so every coprime pair is built once: prod(e + 2) triples.
    out = [(1, 1, 1)]
    for p, e in fac.factors:
        out += [(d * p**i, delta, w * (p - 1) * p ** (i - 1))
                for d, delta, w in out for i in range(1, e + 1)
                ] + [(d, delta * p, -w) for d, delta, w in out]
    return out


def menon_sum(n: int, k: int | None = None, cache: MemoCache | None = None) -> int:
    """Subset gcd sum via the triple divisor sum (see module docstring).

    0 whenever k exceeds n.
    """
    n, k = check_args(n, k)
    fac = factorize(n)
    # Phi_k(n), the d = 1 layer, plus the core's sum over the weights of the d > 1 triples.
    big, small = floor_vectors(n)
    for d, delta, w in divisor_pairs(fac):
        if d > 1:
            _add_progression(big, small, n, delta, pow(delta, -1, d), d, w)
    return vector_count(big, small, fac, k, cache) + _mobius_sum(fac, _term, k)


def evaluate(params: MenonParams, cache: MemoCache | None = None) -> int:
    """Evaluate the subset gcd sum for `params`: menon_sum(params.n, params.k, cache)."""
    return menon_sum(params.n, params.k, cache)
