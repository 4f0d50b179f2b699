"""Regenerate pins.json: the sha256 of every value or stdout a job can produce.

    python3 perfbench/make_pins.py

The values are computed here without the library, from the gcd-class
identities: every nonempty subset of {1..m} has some gcd j, and those with
gcd j correspond to the relatively prime subsets of {1..m // j}, so

    sum over j <= m of f(m // j) = 2^m - 1      (C(m, k) for k-subsets),

and a gcd sum is sum over j <= n with gcd(j, n) = 1 of gcd(j - 1, n) f(n // j).
The output formats are rebuilt from the documented CSV and JSON layouts.
"""

from __future__ import annotations

import json
import sys
from math import comb, gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import PINS, int_digest, text_digest  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMPUTES,
    CLI_TABLES,
    COMPOSITE_POOLS,
    PRIME_POWER_POOLS,
    cli_job,
    gcdsum_jobs,
    table_argv,
)


class Relprime:
    """f(m) (k = None) or f_k(m): subsets of {1..m} with gcd 1, by the floor-block recursion."""

    def __init__(self, k: int | None) -> None:
        self.term = (lambda q: (1 << q) - 1) if k is None else (lambda q: comb(q, k))
        self.memo: dict[int, int] = {}

    def __call__(self, m: int) -> int:
        if m in self.memo:
            return self.memo[m]
        total, j = self.term(m), 2
        while j <= m:
            q = m // j
            last = m // q
            total -= (last - j + 1) * self(q)
            j = last + 1
        self.memo[m] = total
        return total


def coprime_subsets(n: int) -> int:
    """Nonempty subsets of {1..n} whose gcd is coprime to n: Möbius over the
    squarefree divisors d of n of the nonempty subsets of multiples of d."""
    primes, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    total = 0
    for mask in range(1 << len(primes)):
        d, sign = 1, 1
        for i, q in enumerate(primes):
            if mask >> i & 1:
                d, sign = d * q, -sign
        total += sign * ((1 << (n // d)) - 1)
    return total


def gcd_sum(n: int, f: Relprime) -> int:
    return sum(gcd(j - 1, n) * f(n // j) for j in range(1, n + 1) if gcd(j, n) == 1)


def value(tag: str, n: int, k: int | None) -> int:
    if tag in ("f", "fk"):
        return Relprime(k)(n)
    if tag == "phi":
        return coprime_subsets(n)
    return gcd_sum(n, Relprime(k))


def table_text(tag: str, k: int | None, rows: list[tuple[int, int]], fmt: str) -> str:
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{v}\n" for n, v in rows)
    doc = {"function": tag, "k": k, "rows": [{"n": n, "value": str(v)} for n, v in rows]}
    return json.dumps(doc, indent=2) + "\n"


def pinned_digests() -> dict[str, str]:
    """Job name -> sha256 of the expected value (gcd-sum jobs) or stdout (cli
    jobs), for every job a seed can draw."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the expected output of some jobs is that long
    try:
        digests = {}
        sums = {None: Relprime(None), 2: Relprime(2)}
        pools = (*COMPOSITE_POOLS.values(), *PRIME_POWER_POOLS.values())
        for n in sorted({n for pool in pools for n in pool}):
            for job in gcdsum_jobs(n):
                digests[job.name] = int_digest(gcd_sum(n, sums[job.k]))
        for tag, k, sizes in CLI_TABLES:
            f = Relprime(k)
            row = {"f": f, "fk": f, "phi": coprime_subsets}.get(tag, lambda n: gcd_sum(n, f))
            rows = [(n, row(n)) for n in range(1, max(sizes) + 1)]
            for size in sizes:
                for fmt in ("csv", "json"):
                    job = cli_job(table_argv(tag, k, size, fmt))
                    digests[job.name] = text_digest(table_text(tag, k, rows[:size], fmt))
        for argv in CLI_COMPUTES:
            tag, n = argv[1], int(argv[3])
            k = int(argv[argv.index("--k") + 1]) if "--k" in argv else None
            digests[cli_job(argv).name] = text_digest(f"{value(tag, n, k)}\n")
        return digests
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    digests = pinned_digests()
    PINS.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(digests)} digests to {PINS}")


if __name__ == "__main__":
    main()
