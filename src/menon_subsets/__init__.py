"""Exact counting of relatively prime subsets of {1..n} and Menon-type gcd sums.

Every quantity is an exact integer; closed-form evaluators are paired with
independent brute-force oracles and a verification suite that replays the
known value tables and structural identities.
"""

from .counts import (
    BLOCKED,
    COUNT_STRATEGIES,
    DIRECT,
    MemoCache,
    binomial,
    coprime_k_subsets,
    coprime_subsets,
    floor_counts,
    relprime_k_subsets,
    relprime_subsets,
)
from .menon import (
    AUTO,
    MENON_STRATEGIES,
    PRIME_POWER,
    THEOREM,
    MenonParams,
    evaluate,
    is_prime,
    menon_classic,
    menon_sum,
    menon_sum_k,
    menon_sum_k_prime,
    menon_sum_k_prime_power,
    menon_sum_prime,
    menon_sum_prime_power,
    prime_power_split,
)
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    SubsetSum,
    enumerate_coprime_k_subsets,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    enumerate_menon_sum_k,
    enumerate_relprime_k_subsets,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    gcd_class_menon_sum_k,
    subset_gcd_histogram,
)
from .sieve import SieveTables, build_sieve, divisors, gcd, mod_inverse

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "BLOCKED",
    "COUNT_STRATEGIES",
    "DEFAULT_ENUMERATION_LIMIT",
    "DIRECT",
    "MENON_STRATEGIES",
    "MemoCache",
    "MenonParams",
    "PRIME_POWER",
    "SieveTables",
    "SubsetSum",
    "THEOREM",
    "binomial",
    "build_sieve",
    "coprime_k_subsets",
    "coprime_subsets",
    "divisors",
    "enumerate_coprime_k_subsets",
    "enumerate_coprime_subsets",
    "enumerate_menon_sum",
    "enumerate_menon_sum_k",
    "enumerate_relprime_k_subsets",
    "enumerate_relprime_subsets",
    "evaluate",
    "floor_counts",
    "gcd",
    "gcd_class_menon_sum",
    "gcd_class_menon_sum_k",
    "is_prime",
    "menon_classic",
    "menon_sum",
    "menon_sum_k",
    "menon_sum_k_prime",
    "menon_sum_k_prime_power",
    "menon_sum_prime",
    "menon_sum_prime_power",
    "mod_inverse",
    "prime_power_split",
    "relprime_k_subsets",
    "relprime_subsets",
    "subset_gcd_histogram",
]
