"""Formula-vs-oracle verification sweep.

Replays the known small value tables, the enumeration/gcd-class/divisor-sum
agreements and the structural identities, and collects the outcomes in a
VerificationReport.  Each check records its first mismatch, so a red run
points straight at the offending (n, k), along with the number of cases it
ran and its elapsed seconds.  A check that ran no case is reported as SKIP,
and a report with a SKIP is not an overall PASS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb
from time import perf_counter

from .counts import MemoCache, coprime_subsets, relprime_subsets
from .menon import menon_classic, menon_sum, menon_sum_prime, menon_sum_prime_power
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    mobius_subset_count,
    residue_menon_sum,
    subset_gcd_histogram,
)
from .sieve import SieveTables, build_sieve

# Reference prefixes (index i holds the value at n = i + 1), frozen from the
# brute-force subset enumeration oracle.  The first six entries of the first
# four rows are the classically tabulated values; the unrestricted relprime
# count is OEIS A085945, the 2-subset count A015614, and the coprime-subset
# count matches A027375 from n = 2 on (the n = 1 entry differs by the
# empty-set convention).
F_PREFIX = (1, 2, 5, 11, 26, 53, 116, 236, 488, 983, 2006, 4016)
F2_PREFIX = (0, 1, 3, 5, 9, 11, 17, 21, 27, 31, 41, 45)
MBAR_PREFIX = (1, 4, 16, 46, 134, 320, 822, 1898, 4414, 9844, 22106, 48208)
MBAR2_PREFIX = (0, 2, 9, 20, 46, 66, 123, 170, 251, 316, 465, 544)
PHI_PREFIX = (1, 2, 6, 12, 30, 54, 126, 240, 504, 990, 2046, 4020)

# Primes whose powers drive the specialization consistency checks.
SPECIALIZATION_PRIMES = (2, 3, 5, 7, 11, 13)
PRIME_POWER_CAP = 256


@dataclass(frozen=True)
class Mismatch:
    n: int | None
    k: int | None
    expected: str
    actual: str


@dataclass
class CheckResult:
    """One check's outcome; `passed` means no mismatch and no error."""

    name: str
    scope: str
    passed: bool
    mismatch: Mismatch | None = None
    error: str | None = None
    cases: int = 0
    seconds: float = 0.0

    @property
    def status(self) -> str:
        if not self.passed:
            return "FAIL"
        return "PASS" if self.cases else "SKIP"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        """True only if every check ran at least one case and none failed."""
        return all(c.status == "PASS" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [{**asdict(c), "status": c.status} for c in self.checks],
        }

    def render(self) -> str:
        lines = []
        for c in self.checks:
            line = (f"{c.status}  {c.name:34s} {c.scope}"
                    f"  ({c.cases} cases, {c.seconds:.2f}s)")
            if c.mismatch is not None:
                m = c.mismatch
                where = f"n={m.n}" + (f", k={m.k}" if m.k is not None else "")
                line += f"  [first mismatch at {where}: expected {m.expected}, got {m.actual}]"
            if c.error is not None:
                line += f"  [error: {c.error}]"
            lines.append(line)
        lines.append("overall: " + ("PASS" if self.overall else "FAIL"))
        return "\n".join(lines)


def _mm(n, k, expected, actual) -> Mismatch:
    return Mismatch(n=n, k=k, expected=str(expected), actual=str(actual))


def run_verification(
    n_max_enum: int = 16,
    n_max_formula: int = 300,
    k_set: tuple[int, ...] = (1, 2, 3),
    sieve: SieveTables | None = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> VerificationReport:
    """Run every formula-vs-oracle check and return the report.

    n_max_enum bounds the 2^n brute-force enumerations, n_max_formula the
    polynomial-cost sweeps.  The sieve feeds the oracle side only (the
    Möbius-sum counts, the gcd-class sums and the totient partial sums); the
    evaluators under test factor n themselves.  A prebuilt sieve may be
    injected (the test harness uses this to prove that corruption is
    detected); it must cover max(n_max_formula, n_max_enum, 256).
    """
    if n_max_enum > enumeration_limit:
        raise ValueError(
            f"n_max_enum {n_max_enum} exceeds the enumeration limit {enumeration_limit}"
        )
    needed = max(n_max_formula, PRIME_POWER_CAP, n_max_enum)
    if sieve is None:
        sieve = build_sieve(needed)
    elif sieve.limit < needed:
        raise ValueError(f"provided sieve limit {sieve.limit} < required {needed}")

    cache = MemoCache()  # one per run: every enumerated (n, k) is walked once
    walk = {"limit": enumeration_limit, "cache": cache}
    report = VerificationReport()

    def run(name: str, scope: str, fn) -> None:
        # fn is a generator: it yields once per case it runs and returns
        # its first mismatch, or None.
        result = CheckResult(name, scope, passed=False)
        start = perf_counter()
        cases = fn()
        try:
            while True:
                next(cases)
                result.cases += 1
        except StopIteration as done:
            result.mismatch = done.value
            result.passed = done.value is None
        except Exception as exc:  # a crashed check is a failed check
            result.error = f"{type(exc).__name__}: {exc}"
        result.seconds = perf_counter() - start
        report.checks.append(result)

    prefix_n = min(len(F_PREFIX), max(n_max_enum, 6))

    def known_values():
        rows = (
            ("f", F_PREFIX, lambda n: relprime_subsets(n, None, cache)),
            ("f2", F2_PREFIX, lambda n: relprime_subsets(n, 2, cache)),
            ("phi", PHI_PREFIX, lambda n: coprime_subsets(n)),
            ("mbar", MBAR_PREFIX, lambda n: menon_sum(n, None, cache)),
            ("mbar2", MBAR2_PREFIX, lambda n: menon_sum(n, 2, cache)),
        )
        for tag, prefix, fn in rows:
            for i in range(prefix_n):
                yield
                got = fn(i + 1)
                if got != prefix[i]:
                    return _mm(i + 1, None, f"{tag}={prefix[i]}", got)
        return None

    run("known-values", f"tabulated prefixes, n <= {prefix_n}", known_values)

    def enum_counts(with_k):
        # The brute-force checks run once with k None, once over k_set and n.
        for n in range(1, n_max_enum + 1):
            for k in sorted(set(k_set) | {n}) if with_k else (None,):
                yield
                suffix = "" if k is None else "k"
                for tag, expected, got in (
                    ("f", enumerate_relprime_subsets(n, k, **walk),
                     relprime_subsets(n, k, cache)),
                    ("phi", enumerate_coprime_subsets(n, k, **walk),
                     coprime_subsets(n, k)),
                ):
                    if got != expected:
                        return _mm(n, k, f"{tag}{suffix}:{expected}", got)
        return None

    run("enumeration-counts", f"f and phi vs brute force, n <= {n_max_enum}",
        lambda: enum_counts(False))
    run("enumeration-counts-k", f"fk and phik vs brute force, n <= {n_max_enum}",
        lambda: enum_counts(True))

    def three_way(with_k):
        for n in range(1, n_max_enum + 1):
            for k in sorted(set(k_set) | {n}) if with_k else (None,):
                yield
                enum = enumerate_menon_sum(n, k, **walk).total
                gcls = gcd_class_menon_sum(n, sieve, k, cache)
                thrm = menon_sum(n, k, cache)
                if not (enum == gcls == thrm):
                    return _mm(n, k, f"enum:{enum}",
                               f"gcd-class:{gcls}, divisor-sum:{thrm}")
        return None

    run("three-way-gcd-sum", f"enumeration = gcd-class = divisor sum, n <= {n_max_enum}",
        lambda: three_way(False))
    run("three-way-gcd-sum-k", f"k-subset variant, n <= {n_max_enum}",
        lambda: three_way(True))

    def gcd_class_medium():
        for n in range(1, n_max_formula + 1):
            yield
            gcls = gcd_class_menon_sum(n, sieve, None, cache)
            thrm = menon_sum(n, None, cache)
            if gcls != thrm:
                return _mm(n, None, gcls, thrm)
        return None

    run("gcd-class-vs-divisor-sum", f"two-way at formula scale, n <= {n_max_formula}",
        gcd_class_medium)

    def singleton_sweep():
        for n in range(1, n_max_formula + 1):
            yield
            got = relprime_subsets(n, 1, cache)
            if got != 1:
                return _mm(n, 1, 1, got)
        return None

    run("singleton-count-is-one", f"fk(n, 1) = 1, n <= {n_max_formula}",
        singleton_sweep)

    def core_vs_mobius():
        for n in range(1, n_max_formula + 1):
            yield
            for k in (None, *k_set):
                expected = mobius_subset_count(n, sieve, k, cache)
                got = relprime_subsets(n, k, cache)
                if got != expected:
                    return _mm(n, k, expected, got)
        return None

    run("core-vs-mobius-sum", f"count core = sieve-mu Mobius sum, n <= {n_max_formula}, "
        f"k in {{None, {', '.join(map(str, k_set))}}}", core_vs_mobius)

    def prime_power_consistency():
        for p in SPECIALIZATION_PRIMES:
            t = 1
            while p**t <= PRIME_POWER_CAP:
                yield
                n = p**t
                for k in (None, *k_set):
                    general = menon_sum(n, k, cache)
                    collapsed = menon_sum_prime_power(p, t, k, cache)
                    gcls = gcd_class_menon_sum(n, sieve, k, cache)
                    if not (gcls == general == collapsed):
                        return _mm(n, k, f"gcd-class:{gcls}",
                                   f"general:{general}, collapsed:{collapsed}")
                t += 1
        return None

    run("prime-power-consistency",
        f"collapsed = general = gcd-class at prime powers <= {PRIME_POWER_CAP}",
        prime_power_consistency)

    def prime_consistency():
        for p in SPECIALIZATION_PRIMES:
            yield
            for k in (None, *k_set):
                a = menon_sum_prime(p, k, cache)
                b = menon_sum_prime_power(p, 1, k, cache)
                if a != b:
                    return _mm(p, k, b, a)
        return None

    run("prime-consistency", "prime form = prime-power form at t = 1",
        prime_consistency)

    def menon_reduction():
        for n in range(1, n_max_formula + 1):
            yield
            expected = menon_classic(n)
            got = menon_sum(n, 1, cache)
            if got != expected:
                return _mm(n, 1, expected, got)
        return None

    run("menon-reduction", f"k = 1 collapses to phi*tau, n <= {n_max_formula}",
        menon_reduction)

    def classic_direct():
        for n in range(1, n_max_formula + 1):
            yield
            product = menon_classic(n)
            direct = residue_menon_sum(n)
            if product != direct:
                return _mm(n, None, direct, product)
        return None

    run("classic-product-vs-direct", f"phi*tau = residue sum, n <= {n_max_formula}",
        classic_direct)

    diagonal_n = min(24, n_max_formula)
    partition_n = min(60, n_max_formula)

    def diagonal():
        for n in range(1, diagonal_n + 1):
            yield
            got = menon_sum(n, n, cache)
            if got != n:
                return _mm(n, n, n, got)
        return None

    run("full-set-diagonal", f"k = n gives exactly n, n <= {diagonal_n}", diagonal)

    def term_count_law():
        for n in range(1, n_max_enum + 1):
            yield
            for k in (None, *k_set):
                expected = sum(sieve.mu[d] * ((1 << n // d) - 1 if k is None else comb(n // d, k))
                               for d in range(1, n + 1) if n % d == 0)
                result = enumerate_menon_sum(n, k, **walk)
                if result.count != expected:
                    return _mm(n, k, expected, result.count)
        return None

    run("term-count-law", f"enumerated term counts = sieve-mu divisor sum Phi_k(n), "
        f"n <= {n_max_enum}", term_count_law)

    def partitions():
        for n in range(1, partition_n + 1):
            yield
            total = sum(relprime_subsets(n, k, cache) for k in range(1, n + 1))
            whole = relprime_subsets(n, None, cache)
            if total != whole:
                return _mm(n, None, f"f:{whole}", total)
            total = sum(coprime_subsets(n, k) for k in range(1, n + 1))
            whole = coprime_subsets(n)
            if total != whole:
                return _mm(n, None, f"phi:{whole}", total)
        for n in range(1, diagonal_n + 1):
            yield
            total = sum(menon_sum(n, k, cache) for k in range(1, n + 1))
            whole = menon_sum(n, None, cache)
            if total != whole:
                return _mm(n, None, f"mbar:{whole}", total)
        return None

    run("cardinality-partitions", "sums over k rebuild the unrestricted values, "
        f"f and phi n <= {partition_n}, mbar n <= {diagonal_n}", partitions)

    def totient_partial_sum():
        acc = 0
        for n in range(2, n_max_formula + 1):
            yield
            acc += sieve.phi[n]
            got = relprime_subsets(n, 2, cache)
            if got != acc:
                return _mm(n, 2, acc, got)
        return None

    run("pair-count-totient-sum", f"fk(n, 2) = phi(2) + ... + phi(n), n <= {n_max_formula}",
        totient_partial_sum)

    def histogram_consistency():
        for n in range(1, n_max_enum + 1):
            yield
            hist = subset_gcd_histogram(n, **walk)
            if sum(hist.values()) != (1 << n) - 1:
                return _mm(n, None, (1 << n) - 1, sum(hist.values()))
            for j, count in hist.items():
                expected = relprime_subsets(n // j, None, cache)
                if count != expected:
                    return _mm(n, j, expected, count)
        return None

    run("gcd-histogram", f"class sizes match shrunk counts and sum to 2^n - 1, "
        f"n <= {n_max_enum}", histogram_consistency)

    return report
