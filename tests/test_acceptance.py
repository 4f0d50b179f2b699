"""Acceptance gate: the exit criteria, each at its stated range and budget.

Every comparison is exact integer equality.  One PASS/FAIL line is printed
per criterion (run with `pytest -s` to see them live).  Criterion 2 widens
from n <= 16 to n <= 20 when MENON_SUBSETS_EXTENDED=1 is set.
"""

import os
import time

import pytest

from menon_subsets import (
    MemoCache,
    MenonParams,
    build_sieve,
    coprime_subsets,
    evaluate,
    menon_classic,
    menon_sum,
    relprime_subsets,
)
from menon_subsets.counts import coprime_column, relprime_column
from menon_subsets.menon import menon_column
from menon_subsets.oracle import (
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    mobius_subset_count,
    prime_power_menon_sum,
    subset_gcd_histogram,
)

EXTENDED = os.environ.get("MENON_SUBSETS_EXTENDED") == "1"

F_TABLE = (1, 2, 5, 11, 26, 53)
F2_TABLE = (0, 1, 3, 5, 9, 11)
MBAR_TABLE = (1, 4, 16, 46, 134, 320)
MBAR2_TABLE = (0, 2, 9, 20, 46, 66)


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(100_000)


@pytest.fixture(scope="module")
def cache():
    return MemoCache()


def _report(num, description, ok, elapsed, budget=None):
    in_budget = budget is None or elapsed <= budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    print(f"criterion {num}: {status} - {description} [{timing}]")
    assert ok, f"criterion {num} failed: {description}"
    assert in_budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_value_tables(cache):
    start = time.perf_counter()
    ok = (
        [relprime_subsets(n, None, cache) for n in range(1, 7)] == list(F_TABLE)
        and [relprime_subsets(n, 2, cache) for n in range(1, 7)]
        == list(F2_TABLE)
        and [menon_sum(n, None, cache) for n in range(1, 7)] == list(MBAR_TABLE)
        and [menon_sum(n, 2, cache) for n in range(1, 7)]
        == list(MBAR2_TABLE)
    )
    _report(1, "tabulated values for f, f2, subset gcd sums reproduced",
            ok, time.perf_counter() - start, budget=1.0)


def test_criterion_2_three_way_agreement(sieve, cache):
    n_max = 20 if EXTENDED else 16
    start = time.perf_counter()
    ok = True
    for n in range(1, n_max + 1):
        ks = sorted({1, 2, 3, n})
        ok &= enumerate_relprime_subsets(n) == relprime_subsets(n, None, cache)
        ok &= enumerate_coprime_subsets(n) == coprime_subsets(n)
        hist = subset_gcd_histogram(n)
        ok &= all(hist[j] == relprime_subsets(n // j, None, cache) for j in hist)
        for k in ks:
            ok &= enumerate_relprime_subsets(n, k) == relprime_subsets(n, k, cache)
            ok &= enumerate_coprime_subsets(n, k) == coprime_subsets(n, k)
        enum = enumerate_menon_sum(n).total
        ok &= enum == gcd_class_menon_sum(n, sieve, None, cache)
        ok &= enum == menon_sum(n, None, cache)
        for k in ks:
            enum = enumerate_menon_sum(n, k).total
            ok &= enum == gcd_class_menon_sum(n, sieve, k, cache)
            ok &= enum == menon_sum(n, k, cache)
        if not ok:
            break
    scope = f"n <= {n_max}" + (" (extended)" if EXTENDED else "")
    _report(2, f"three-way oracle agreement, {scope}, k in {{1,2,3,n}}",
            ok, time.perf_counter() - start, budget=60.0)


def test_criterion_3_singleton_sweep():
    start = time.perf_counter()
    shared = MemoCache()
    ok = all(relprime_subsets(n, 1, shared) == 1 for n in range(1, 100_001))
    _report(3, "fk(n, 1) = 1 for every n <= 100000 via the prefix rows",
            ok, time.perf_counter() - start, budget=60.0)


def test_criterion_4_specialization_consistency(sieve, cache):
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        t = 1
        while p**t <= 256:
            n = p**t
            for k in (None, 1, 2, 3):
                ok &= prime_power_menon_sum(p, t, sieve, k, cache) == menon_sum(n, k, cache)
            t += 1
    _report(4, "the prime-power identity matches the general sum at prime powers <= 256",
            ok, time.perf_counter() - start, budget=30.0)


def test_criterion_5_classic_reduction(cache):
    start = time.perf_counter()
    ok = all(menon_sum(n, 1, cache) == menon_classic(n) for n in range(1, 501))
    ok = ok and all(menon_sum(n, n, cache) == n for n in range(1, 25))
    _report(5, "k = 1 reduces to phi*tau for n <= 500; k = n gives n for n <= 24",
            ok, time.perf_counter() - start)


def test_criterion_6_term_count_law():
    start = time.perf_counter()
    ok = True
    for n in range(1, 17):
        ok &= enumerate_menon_sum(n).count == coprime_subsets(n)
        for k in sorted({1, 2, 3, n}):
            ok &= enumerate_menon_sum(n, k).count == coprime_subsets(n, k)
    _report(6, "enumerated sums have phi / phi_k terms for n <= 16",
            ok, time.perf_counter() - start)


def test_criterion_7_structural_identities(sieve, cache):
    start = time.perf_counter()
    ok = True
    for n in range(1, 25):
        ok &= sum(relprime_subsets(n, k, cache)
                  for k in range(1, n + 1)) == relprime_subsets(n, None, cache)
        ok &= sum(coprime_subsets(n, k)
                  for k in range(1, n + 1)) == coprime_subsets(n)
        ok &= sum(menon_sum(n, k, cache)
                  for k in range(1, n + 1)) == menon_sum(n, None, cache)
    acc = 0
    for n in range(2, 1001):
        acc += sieve.phi[n]
        ok &= relprime_subsets(n, 2) == acc
    _report(7, "cardinality partitions for n <= 24; pair counts are totient sums "
            "to 1000", ok, time.perf_counter() - start)


def test_criterion_8_performance(sieve):
    cache = MemoCache()
    start = time.perf_counter()
    via_divisor_sum = menon_sum(3000, None, cache)
    elapsed = time.perf_counter() - start
    ok = via_divisor_sum == gcd_class_menon_sum(3000, sieve, None, cache)
    ok = ok and relprime_subsets(5000) == mobius_subset_count(5000, sieve)
    _report(8, "memoized divisor sum at n = 3000 matches the gcd-class oracle; "
            "f(5000) matches the sieve Mobius sum", ok, elapsed, budget=60.0)


def test_criterion_9_blocked_sums_at_scale(sieve):
    start = time.perf_counter()
    ok = True
    for n in (55440, 65536):  # highly composite, prime power
        cache = MemoCache()
        ok &= evaluate(MenonParams(n), MemoCache()) == \
            gcd_class_menon_sum(n, sieve, None, cache)
        ok &= evaluate(MenonParams(n, 2), MemoCache()) == \
            gcd_class_menon_sum(n, sieve, 2, cache)
    _report(9, "blocked gcd sums match the gcd-class oracle at n = 55440 and "
            "n = 65536, k in {none, 2}", ok, time.perf_counter() - start, budget=60.0)


def test_criterion_10_table_columns(sieve):
    start = time.perf_counter()
    ok = True
    n_max = 4096
    for column, count, k in ((relprime_column, relprime_subsets, None),
                             (relprime_column, relprime_subsets, 3),
                             (coprime_column, coprime_subsets, None),
                             (coprime_column, coprime_subsets, 2)):
        values = column(n_max, k)
        ok &= len(values) == n_max
        ok &= all(values[n - 1] == count(n, k) for n in (1, 2, 3, 2520, 3600, 4093, 4095, 4096))
        if column is relprime_column:
            ok &= all(values[n - 1] == mobius_subset_count(n, sieve, k) for n in range(1, 1201))
    _report(10, "f, fk(3), phi and phik(2) columns to 4096 match the per-n route at "
            "sampled n; f and fk match the sieve Mobius sum for n <= 1200",
            ok, time.perf_counter() - start, budget=30.0)


def test_criterion_11_gcd_sum_columns():
    start = time.perf_counter()
    ok = True
    n_max = 4096
    for k in (None, 2):
        cache = MemoCache()
        ok &= menon_column(n_max, k) == [menon_sum(n, k, cache) for n in range(1, n_max + 1)]
    _report(11, "mbar and mbark(2) columns to 4096 equal the per-row sweep",
            ok, time.perf_counter() - start, budget=30.0)
