"""The named workloads: which jobs each runs, drawn from a seed.

A job is one call into the library's public surface.  The seed only picks
inputs; it never changes how a job is run.  The entries of each candidate
pool cost about the same, so the seed varies the inputs without varying the
amount of work by much.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One timed call.  `kind` is "gcdsum", "cli" or "verify"."""

    name: str
    kind: str
    n: int | None = None
    k: int | None = None
    argv: tuple[str, ...] = ()


# gcdsum_composite: one n per class.  None is a prime power, so AUTO sends
# every call down the general triple divisor sum, never the collapsed
# prime-power route.  Within a class the pair loop's length and the total
# width of the terms it adds differ by at most about 5%, and the calls took
# the same time to within about 5% on one host.
COMPOSITE_POOLS = {
    # tau(n) >= 90; mbar here is the workload's slowest job, and at these
    # four n it took the same time to within 3%
    "highly-composite": (55440, 58800, 59400, 61200),
    # 2 * 3 * 5 * 7 * p
    "squarefree": (47670, 48090, 48930),
    # p * q with primes 100 < p < q
    "generic": (56027, 56033, 56153, 56257, 56261, 56279, 56291, 56317, 56323, 56341,
                56363, 56387),
}

# gcdsum_prime_power: one n per class, every one a prime power, so AUTO sends
# every call down the collapsed prime-power route.  The two power classes
# have t >= 3, so the 1 + (m - 1) p^s progression of that route does real
# work.  Within a class the calls took the same time to within about 5%.
PRIME_POWER_POOLS = {
    # primes just below 2^16
    "prime": (65407, 65413, 65419, 65423, 65437, 65447, 65449, 65479, 65497, 65519, 65521),
    # 3^10, 41^3
    "power-mid": (59049, 68921),
    # 2^16, 5^7, 17^4; mbar here is the workload's slowest job, and at these
    # three n it took the same time to within 1%
    "power-high": (65536, 78125, 83521),
}

# cli_sweep: table and compute commands.  Each table command draws its
# --n-max from a pinned grid, so that every output it can produce has a
# pinned digest in pins.json (as has every gcd sum the pools above can
# produce).
TABLE_SIZES = (2480, 2490, 2500, 2510, 2520)
SUM_TABLE_SIZES = (790, 795, 800, 805, 810)
CLI_TABLES = (
    ("f", None, TABLE_SIZES),
    ("fk", 3, TABLE_SIZES),
    ("phi", None, TABLE_SIZES),
    ("mbar", None, SUM_TABLE_SIZES),
    ("mbark", 2, SUM_TABLE_SIZES),
)
# Fixed single-value commands.  The first two print integers of more than
# 4300 decimal digits, which Python refuses to convert by default; they fail
# today and stay in the list so that a fix shows as a lower failure share.
CLI_COMPUTES = (
    ("compute", "f", "--n", "15000"),
    ("compute", "mbar", "--n", "20000"),
    ("compute", "mbark", "--n", "20000", "--k", "2"),
    ("compute", "fk", "--n", "15000", "--k", "3"),
    ("compute", "phi", "--n", "12000"),
    ("compute", "mbar", "--n", "12000"),
)

# verify_battery: the battery at the `verify` command's defaults; its inputs
# are fixed, so every seed runs the same job.
VERIFY_ARGS = {"n_max_enum": 16, "n_max_formula": 300, "k_set": (1, 2, 3)}


def gcdsum_jobs(n: int) -> list[Job]:
    """evaluate(MenonParams(n)) and evaluate(MenonParams(n, 2))."""
    return [Job(f"mbar n={n}", "gcdsum", n=n), Job(f"mbark n={n} k=2", "gcdsum", n=n, k=2)]


def _gcdsum_jobs(pools: dict[str, tuple[int, ...]], rng: random.Random) -> list[Job]:
    return [job for pool in pools.values() for job in gcdsum_jobs(rng.choice(pool))]


def table_argv(tag: str, k: int | None, n_max: int, fmt: str) -> tuple[str, ...]:
    argv = ["table", tag]
    if k is not None:
        argv += ["--k", str(k)]
    return tuple(argv + ["--n-max", str(n_max), "--format", fmt])


def cli_job(argv: tuple[str, ...]) -> Job:
    return Job("cli " + " ".join(argv), "cli", argv=argv)


def _cli_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for tag, k, sizes in CLI_TABLES:
        n_max = rng.choice(sizes)
        jobs += [cli_job(table_argv(tag, k, n_max, fmt)) for fmt in ("csv", "json")]
    return jobs + [cli_job(argv) for argv in CLI_COMPUTES]


def _verify_jobs(rng: random.Random) -> list[Job]:
    args = VERIFY_ARGS
    return [Job(f"verify n_max_enum={args['n_max_enum']} n_max_formula={args['n_max_formula']}"
                f" k_set={','.join(map(str, args['k_set']))}", "verify")]


WORKLOADS = {
    "gcdsum_composite": lambda rng: _gcdsum_jobs(COMPOSITE_POOLS, rng),
    "gcdsum_prime_power": lambda rng: _gcdsum_jobs(PRIME_POWER_POOLS, rng),
    "cli_sweep": _cli_jobs,
    "verify_battery": _verify_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for `seed`; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed))
