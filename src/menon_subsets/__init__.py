"""Exact counting of relatively prime subsets of {1..n} and Menon-type gcd sums.

Every quantity is an exact integer; closed-form evaluators are paired with
independent brute-force oracles and a verification suite that replays the
known value tables and structural identities.
"""

from .counts import (
    MemoCache,
    coprime_subsets,
    relprime_subsets,
)
from .menon import (
    MenonParams,
    evaluate,
    menon_classic,
    menon_sum,
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
    factorize,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "Factorization",
    "MemoCache",
    "MenonParams",
    "SieveTables",
    "SubsetSum",
    "build_sieve",
    "coprime_subsets",
    "enumerate_coprime_subsets",
    "enumerate_menon_sum",
    "enumerate_relprime_subsets",
    "evaluate",
    "factorize",
    "gcd_class_menon_sum",
    "menon_classic",
    "menon_sum",
    "mobius_subset_count",
    "relprime_subsets",
    "subset_gcd_histogram",
]
