"""Menon-type gcd sums.

menon_classic(n)  -- sum of gcd(a-1, n) over a reduced residue system mod n,
                     which closes to phi(n) * tau(n)
menon_sum(n)      -- the same kind of sum taken over all nonempty subsets A
                     of {1..n} whose gcd is coprime to n, each contributing
                     gcd(gcd(A) - 1, n)
menon_sum_k(n, k) -- restriction to k-element subsets

menon_sum evaluates a triple divisor sum that expresses the total through
the relatively prime subset counts F (relprime_subsets, or
relprime_k_subsets for menon_sum_k):

    sum over d | n of phi(d) *
      sum over squarefree delta | n with gcd(delta, d) = 1 of mu(delta) *
        sum over j in 1..n/delta with delta * j = 1 (mod d) of
          F(floor(n / (j * delta)))

It is evaluated in two passes.  The weight pass walks each (d, delta)
pair's progression j = delta^-1 (mod d) in blocks of constant
floor(n / (j * delta)), counts the progression's members in each block in
O(1), and adds phi(d) * mu(delta) * count to a small-integer weight w_q of
that floor value q.  The count pass then gets F(q) for every floor value q
of n at once from counts.floor_counts, and the result is the single sum of
w_q * F(q) over the about 2 sqrt(n) q with w_q != 0: no per-j count
evaluation and no n-bit addition per j.  Prime-power and prime inputs admit
collapsed forms (the only surviving (d, delta) pairs are (1, 1), (1, p) and
(p^s, 1)), exposed as *_prime_power and *_prime and evaluated by the same
two passes; `evaluate` dispatches between the general and collapsed routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counts import MemoCache, as_int, floor_counts
from .sieve import SieveTables, divisors, gcd, mod_inverse

THEOREM = "theorem"
PRIME_POWER = "prime-power"
AUTO = "auto"
MENON_STRATEGIES = (THEOREM, PRIME_POWER, AUTO)


def is_prime(n: int) -> bool:
    """Trial-division primality check; inputs here are desk scale."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power_split(n: int) -> tuple[int, int] | None:
    """Return (p, t) with n = p**t and p prime, or None if n is not one."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return (n, 1)
    t = 0
    m = n
    while m % p == 0:
        m //= p
        t += 1
    return (p, t) if m == 1 else None


@dataclass(frozen=True)
class MenonParams:
    """Arguments for one gcd-sum evaluation: n, optional k, strategy."""

    n: int
    k: int | None = None
    strategy: str = AUTO

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "n"))
        if self.k is not None:
            object.__setattr__(self, "k", as_int(self.k, "k"))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1 when given")
        if self.strategy not in MENON_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == PRIME_POWER and prime_power_split(self.n) is None:
            raise ValueError(f"{self.n} is not a prime power")


def _check(n: int, sieve: SieveTables) -> int:
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if sieve.limit < n:
        raise ValueError(f"sieve limit {sieve.limit} is too small for n = {n}")
    return n


def menon_classic(n: int, sieve: SieveTables, direct_sum: bool = False) -> int:
    """Classic identity value phi(n) * tau(n).

    With direct_sum=True, instead accumulates gcd(a - 1, n) over the
    reduced residues a mod n -- the definitional sum, kept around for
    cross-checking.
    """
    n = _check(n, sieve)
    if direct_sum:
        return sum(gcd(a - 1, n) for a in range(1, n + 1) if gcd(a, n) == 1)
    return sieve.phi[n] * len(divisors(n))


def menon_sum(n: int, sieve: SieveTables, cache: MemoCache | None = None) -> int:
    """Subset gcd sum via the triple divisor sum (see module docstring)."""
    return _triple_sum(n, sieve, cache, k=None)


def menon_sum_k(
    n: int, k: int, sieve: SieveTables, cache: MemoCache | None = None
) -> int:
    """k-subset restriction of menon_sum; 0-consistent when k exceeds n."""
    return _triple_sum(n, sieve, cache, k=k)


def _add_progression(
    weights: dict[int, int], N: int, first: int, step: int, last: int, w: int
) -> None:
    """Add w * #{j <= last : j = first (mod step), N // j = q} to weights[q].

    Needs last <= N.  Jumps from member to member of the progression one
    block of constant N // j at a time, counting the block's members in
    O(1), so the cost is the smaller of the member count and the ~2 sqrt(N)
    blocks.
    """
    j = first
    while j <= last:
        q = N // j
        count = (min(N // q, last) - j) // step + 1
        weights[q] = weights.get(q, 0) + w * count
        j += count * step


def _weighted_total(
    weights: dict[int, int], n: int, k: int | None, cache: MemoCache | None
) -> int:
    # sum of w_q * F(q); every key q is a floor value of n.  floor_counts
    # also rejects a k that is not a positive integer.
    counts = floor_counts(n, k, cache)
    total = sum(w * counts[q] for q, w in weights.items() if w)
    if total < 0:
        raise ArithmeticError(f"gcd sum came out negative ({total})")
    return total


def _triple_sum(
    n: int, sieve: SieveTables, cache: MemoCache | None, k: int | None
) -> int:
    n = _check(n, sieve)
    divs = divisors(n)
    mu = sieve.mu
    phi = sieve.phi
    weights: dict[int, int] = {}
    for d in divs:
        for delta in divs:
            mu_delta = mu[delta]
            if mu_delta == 0 or gcd(delta, d) != 1:
                continue
            upper = n // delta
            first = mod_inverse(delta, d)
            _add_progression(weights, upper, first, d, upper, phi[d] * mu_delta)
    return _weighted_total(weights, n, k, cache)


def _check_prime_power(p: int, t: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < 1:
        raise ValueError("exponent t must be >= 1")


def menon_sum_prime_power(
    p: int, t: int, sieve: SieveTables, cache: MemoCache | None = None
) -> int:
    """Collapsed form of menon_sum at n = p**t."""
    return _prime_power_sum(p, t, sieve, cache, k=None)


def menon_sum_k_prime_power(
    p: int, t: int, k: int, sieve: SieveTables, cache: MemoCache | None = None
) -> int:
    """Collapsed form of menon_sum_k at n = p**t."""
    return _prime_power_sum(p, t, sieve, cache, k=k)


def _prime_power_sum(
    p: int, t: int, sieve: SieveTables, cache: MemoCache | None, k: int | None
) -> int:
    # sum of F(n // j) over j in 1..n, minus the same over 1..n/p, plus
    # (p - 1) * p^(s-1) * F(n // j) over j = 1 + (m - 1) p^s, m <= p^(t-s).
    _check_prime_power(p, t)
    n = _check(p**t, sieve)
    weights: dict[int, int] = {}
    _add_progression(weights, n, 1, 1, n, 1)
    _add_progression(weights, n // p, 1, 1, n // p, -1)
    for s in range(1, t + 1):
        ps = p**s
        _add_progression(weights, n, 1, ps, n - ps + 1, (p - 1) * p ** (s - 1))
    return _weighted_total(weights, n, k, cache)


def menon_sum_prime(
    p: int, sieve: SieveTables, cache: MemoCache | None = None
) -> int:
    """Prime specialization: p * f(p) - 1 + sum over j in 2..p of f(floor(p/j))."""
    return _prime_sum(p, sieve, cache, k=None)


def menon_sum_k_prime(
    p: int, k: int, sieve: SieveTables, cache: MemoCache | None = None
) -> int:
    """Prime specialization of the k-subset sum."""
    return _prime_sum(p, sieve, cache, k=k)


def _prime_sum(
    p: int, sieve: SieveTables, cache: MemoCache | None, k: int | None
) -> int:
    # p * F(p) - F(1) + sum over j in 2..p of F(p // j)
    _check_prime_power(p, 1)
    p = _check(p, sieve)
    weights = {p: p - 1, 1: -1}
    _add_progression(weights, p, 1, 1, p, 1)
    return _weighted_total(weights, p, k, cache)


def evaluate(
    params: MenonParams, sieve: SieveTables, cache: MemoCache | None = None
) -> int:
    """Evaluate the subset gcd sum for `params`, dispatching on strategy.

    AUTO picks the collapsed prime-power route when n is a prime power and
    the general triple sum otherwise; both routes return identical values
    wherever both apply.
    """
    strategy = params.strategy
    split = prime_power_split(params.n)
    if strategy == AUTO:
        strategy = PRIME_POWER if split is not None else THEOREM
    if strategy == THEOREM:
        if params.k is None:
            return menon_sum(params.n, sieve, cache)
        return menon_sum_k(params.n, params.k, sieve, cache)
    if split is None:
        raise ValueError(f"{params.n} is not a prime power")
    p, t = split
    if params.k is None:
        return menon_sum_prime_power(p, t, sieve, cache)
    return menon_sum_k_prime_power(p, t, params.k, sieve, cache)
