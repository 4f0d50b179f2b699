"""Exact counting of relatively prime subsets of {1..n} and Menon-type gcd sums.

Every quantity is an exact integer; closed-form evaluators are paired with
independent brute-force oracles and a verification suite that replays the
known value tables and structural identities.
"""

from .counts import (
    MemoCache,
    binomial,
    coprime_subsets,
    floor_counts,
    relprime_subsets,
)
from .menon import (
    AUTO,
    MENON_STRATEGIES,
    PRIME_POWER,
    THEOREM,
    MenonParams,
    evaluate,
    menon_classic,
    menon_sum,
    menon_sum_prime,
    menon_sum_prime_power,
)
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    SubsetSum,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    mobius_subset_count,
    subset_gcd_histogram,
)
from .sieve import (
    Factorization,
    SieveTables,
    build_sieve,
    divisors,
    factorize,
    gcd,
    is_prime,
    mod_inverse,
    prime_power_split,
)

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "DEFAULT_ENUMERATION_LIMIT",
    "Factorization",
    "MENON_STRATEGIES",
    "MemoCache",
    "MenonParams",
    "PRIME_POWER",
    "SieveTables",
    "SubsetSum",
    "THEOREM",
    "binomial",
    "build_sieve",
    "coprime_subsets",
    "divisors",
    "enumerate_coprime_subsets",
    "enumerate_menon_sum",
    "enumerate_relprime_subsets",
    "evaluate",
    "factorize",
    "floor_counts",
    "gcd",
    "gcd_class_menon_sum",
    "is_prime",
    "menon_classic",
    "menon_sum",
    "menon_sum_prime",
    "menon_sum_prime_power",
    "mobius_subset_count",
    "mod_inverse",
    "prime_power_split",
    "relprime_subsets",
    "subset_gcd_histogram",
]
