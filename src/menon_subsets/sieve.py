"""Elementary number theory: one factorisation of n, and a linear sieve.

The counting and gcd-sum modules read mu and phi only at divisors of n, so
they take them from factorize(n), a single trial-division pass.  The sieve
tables over 1..limit remain as the oracles' independent source of mu and
phi, and of the Mertens function their Möbius sums read; no production count
reads them.  The strict integer checks on n and k that every public function
applies live here too, at the bottom of the import graph, so the oracles
share them without importing the code they check.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple


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


def check_args(n, k=None) -> tuple[int, int | None]:
    """(n, k) as plain ints, n >= 1 and k None or >= 1; TypeError or ValueError."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1 (subsets of {1..n})")
    if k is not None:
        k = as_int(k, "k")
        if k < 1:
            raise ValueError("k must be >= 1")
    return n, k


class Factorization(NamedTuple):
    """n = product of p**e over `factors`, the (p, e) pairs with p ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division up to sqrt(n)."""
    n, _ = check_args(n)
    factors = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


class SieveTables:
    """Möbius and totient tables for 1..limit.

    Entry i of each list corresponds to the integer i; index 0 is padding.
    Instances are treated as immutable after construction and are safe to
    share across concurrent readers.
    """

    def __init__(self, limit: int, mu: list[int], phi: list[int]) -> None:
        self.limit, self.mu, self.phi = limit, mu, phi

    @cached_property
    def mertens(self) -> list[int]:
        """Prefix sums of the Möbius values: mertens[x] = mu[1] + ... + mu[x].

        The oracles' Möbius sums read mu through it, one block of constant
        n // d at a time.
        """
        return list(accumulate(self.mu))  # mu[0] = 0 pads mertens[0]


def build_sieve(limit: int) -> SieveTables:
    """Build mu and phi tables up to `limit`.

    Linear sieve: every composite is crossed off exactly once, via its
    smallest prime factor, so construction is O(limit).  phi[i] is still 0
    when the loop reaches i exactly if i is prime.
    """
    if limit < 1:
        raise ValueError("sieve limit must be a positive integer")
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    mu[1] = 1
    phi[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if phi[i] == 0:
            primes.append(i)
            mu[i] = -1
            phi[i] = i - 1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            if i % p == 0:
                phi[ip] = phi[i] * p
                break
            mu[ip] = -mu[i]
            phi[ip] = phi[i] * (p - 1)
    return SieveTables(limit, mu, phi)

