"""Formula-vs-oracle verification sweep.

Replays the known small value tables, the enumeration/gcd-class/divisor-sum
agreements and the structural identities, and collects the outcomes in a
VerificationReport.  The sweeps to n_max_formula compare whole columns
(relprime_column, coprime_column, menon_column) with the oracles; the per-n
route is checked at that scale by gcd-class-vs-divisor-sum, which sets a cold
menon_sum(n) beside the column and the gcd-class oracle at every n.  The
other checks' count and gcd-sum calls are per n at n <= 256, each one cold.

A check is a generator of its cases: it yields one result per finished case,
that case's Mismatch or None.  The harness counts the cases and times the
check; it stops at the first Mismatch, so a red run points straight at the
offending (n, k), and a raised exception becomes the check's error, its case
not counted: `cases` counts finished cases.  A check that ran no case is
reported as SKIP, and a report with a SKIP is not an overall PASS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb
from time import perf_counter

from .counts import MemoCache, coprime_column, coprime_subsets, relprime_column, relprime_subsets
from .menon import menon_classic, menon_column, menon_sum
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    enumerate_coprime_subsets,
    enumerate_menon_sum,
    enumerate_relprime_subsets,
    gcd_class_menon_sum,
    mobius_subset_count,
    prime_power_menon_sum,
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

# Primes whose powers drive the prime-power consistency check.
POWER_PRIMES = (2, 3, 5, 7, 11, 13)
POWER_CAP = 256


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


def _same(n, k, expected, actual, label: str = "") -> Mismatch | None:
    """None when actual equals expected, else their Mismatch; label prefixes expected."""
    return None if actual == expected else Mismatch(n, k, f"{label}{expected}", str(actual))


def _first(results) -> Mismatch | None:
    """The first Mismatch among results, or None; a lazy iterable stops at it."""
    return next(filter(None, results), None)


def run_verification(
    n_max_enum: int = 16,
    n_max_formula: int = 300,
    k_set: tuple[int, ...] = (1, 2, 3),
    sieve: SieveTables | None = None,
) -> VerificationReport:
    """Run every formula-vs-oracle check and return the report.

    n_max_enum bounds the 2^n brute-force enumerations (at most
    DEFAULT_ENUMERATION_LIMIT), n_max_formula the polynomial-cost sweeps,
    which read columns.  The sieve feeds the oracle side only (the
    Möbius-sum counts, the gcd-class sums, the prime-power identity and the
    totient partial sums); the evaluators under test factor n themselves, and
    the columns invert divisor sums.  A prebuilt sieve may be injected (the
    test harness uses this to prove that corruption is detected); it must
    cover max(n_max_formula, n_max_enum, 256).  Bad bounds or k raise ValueError
    before any check runs.
    """
    if min(n_max_enum, n_max_formula) < 0 or not k_set or any(
            type(k) is not int or k < 1 for k in k_set):
        raise ValueError("n_max_enum and n_max_formula must be >= 0 and k_set nonempty ints "
                         f">= 1, got {n_max_enum}, {n_max_formula}, {k_set!r}")
    if n_max_enum > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"n_max_enum {n_max_enum} exceeds the enumeration limit "
                         f"{DEFAULT_ENUMERATION_LIMIT}")
    needed = max(n_max_formula, POWER_CAP, n_max_enum)
    if sieve is None:
        sieve = build_sieve(needed)
    elif sieve.limit < needed:
        raise ValueError(f"provided sieve limit {sieve.limit} < required {needed}")

    cache = MemoCache()  # the oracles', one per run: every enumerated (n, k) is walked once
    report = VerificationReport()

    def run(name: str, scope: str, cases) -> None:
        # cases yields one result per finished case: its Mismatch, or None.
        result = CheckResult(name, scope, passed=False)
        start = perf_counter()
        try:
            for mismatch in cases:
                result.cases += 1
                if mismatch is not None:
                    result.mismatch = mismatch
                    break
            result.passed = result.mismatch is None
        except Exception as exc:  # a crashed check is a failed check
            result.error = f"{type(exc).__name__}: {exc}"
        result.seconds = perf_counter() - start
        report.checks.append(result)

    prefix_n = min(len(F_PREFIX), max(n_max_enum, 6))

    def known_values():
        for tag, prefix, fn in (
            ("f", F_PREFIX, relprime_subsets),
            ("f2", F2_PREFIX, lambda n: relprime_subsets(n, 2)),
            ("phi", PHI_PREFIX, coprime_subsets),
            ("mbar", MBAR_PREFIX, menon_sum),
            ("mbar2", MBAR2_PREFIX, lambda n: menon_sum(n, 2)),
        ):
            for n in range(1, prefix_n + 1):
                yield _same(n, None, prefix[n - 1], fn(n), f"{tag}=")

    run("known-values", f"tabulated prefixes, n <= {prefix_n}", known_values())

    def enumerated(with_k):
        # The brute-force checks' (n, k): k None, or each k in k_set and k = n.
        for n in range(1, n_max_enum + 1):
            for k in sorted(set(k_set) | {n}) if with_k else (None,):
                yield n, k

    def enum_counts(with_k):
        for n, k in enumerated(with_k):
            suffix = "" if k is None else "k"
            yield _first([_same(n, k, enumerate_relprime_subsets(n, k, cache=cache),
                                relprime_subsets(n, k), f"f{suffix}:"),
                          _same(n, k, enumerate_coprime_subsets(n, k, cache=cache),
                                coprime_subsets(n, k), f"phi{suffix}:")])

    run("enumeration-counts", f"f and phi vs brute force, n <= {n_max_enum}",
        enum_counts(False))
    run("enumeration-counts-k", f"fk and phik vs brute force, n <= {n_max_enum}",
        enum_counts(True))

    def three_way(with_k):
        for n, k in enumerated(with_k):
            enum = enumerate_menon_sum(n, k, cache=cache).total
            gcls = gcd_class_menon_sum(n, sieve, k, cache)
            thrm = menon_sum(n, k)
            yield None if enum == gcls == thrm else Mismatch(
                n, k, f"enum:{enum}", f"gcd-class:{gcls}, divisor-sum:{thrm}")

    run("three-way-gcd-sum", f"enumeration = gcd-class = divisor sum, n <= {n_max_enum}",
        three_way(False))
    run("three-way-gcd-sum-k", f"k-subset variant, n <= {n_max_enum}", three_way(True))

    def column(fn, k=None, n_max=n_max_formula):
        # fn's values at 1..n_max, or none when the range is empty.
        return fn(n_max, k) if n_max else []

    def gcd_class_medium():
        mbar = column(menon_column)
        for n in range(1, n_max_formula + 1):
            gcls = gcd_class_menon_sum(n, sieve, None, cache)
            thrm = menon_sum(n)
            yield None if gcls == mbar[n - 1] == thrm else Mismatch(
                n, None, f"gcd-class:{gcls}", f"column:{mbar[n - 1]}, divisor-sum:{thrm}")

    run("gcd-class-vs-divisor-sum", "gcd-class = column = cold divisor sum, "
        f"n <= {n_max_formula}", gcd_class_medium())

    def singleton_sweep():
        for n, got in enumerate(column(relprime_column, 1), 1):
            yield _same(n, 1, 1, got)

    run("singleton-count-is-one", f"fk(n, 1) = 1 on the column, n <= {n_max_formula}",
        singleton_sweep())

    def core_vs_mobius():
        columns = {k: column(relprime_column, k) for k in (None, *k_set)}
        for n in range(1, n_max_formula + 1):
            yield _first(_same(n, k, mobius_subset_count(n, sieve, k, cache), values[n - 1])
                         for k, values in columns.items())

    run("core-vs-mobius-sum", f"f and fk columns = sieve-mu Mobius sum, n <= {n_max_formula}, "
        f"k in {{None, {', '.join(map(str, k_set))}}}", core_vs_mobius())

    def prime_power_case(p, t, k):
        n = p**t
        got = menon_sum(n, k)
        gcls = gcd_class_menon_sum(n, sieve, k, cache)
        identity = prime_power_menon_sum(p, t, sieve, k, cache)
        return None if gcls == identity == got else Mismatch(
            n, k, f"gcd-class:{gcls}, prime-power identity:{identity}", f"divisor-sum:{got}")

    def prime_power_consistency():
        for p in POWER_PRIMES:
            t = 1
            while p**t <= POWER_CAP:
                yield _first(prime_power_case(p, t, k) for k in (None, *k_set))
                t += 1

    run("prime-power-consistency", "divisor sum = gcd-class = prime-power identity at prime "
        f"powers <= {POWER_CAP}", prime_power_consistency())

    def menon_reduction():
        for n, got in enumerate(column(menon_column, 1), 1):
            yield _same(n, 1, menon_classic(n), got)

    run("menon-reduction", f"k = 1 column collapses to phi*tau, n <= {n_max_formula}",
        menon_reduction())

    run("classic-product-vs-direct", f"phi*tau = residue sum, n <= {n_max_formula}",
        (_same(n, None, residue_menon_sum(n), menon_classic(n))
         for n in range(1, n_max_formula + 1)))

    diagonal_n = min(24, n_max_formula)
    partition_n = min(60, n_max_formula)

    run("full-set-diagonal", f"k = n gives exactly n, n <= {diagonal_n}",
        (_same(n, n, n, menon_sum(n, n)) for n in range(1, diagonal_n + 1)))

    def term_count_law():
        def phi_k(n, k):  # Phi_k(n) as the sieve-mu divisor sum
            return sum(sieve.mu[d] * ((1 << n // d) - 1 if k is None else comb(n // d, k))
                       for d in range(1, n + 1) if n % d == 0)

        for n in range(1, n_max_enum + 1):
            yield _first(_same(n, k, phi_k(n, k), enumerate_menon_sum(n, k, cache=cache).count)
                         for k in (None, *k_set))

    run("term-count-law", f"enumerated term counts = sieve-mu divisor sum Phi_k(n), "
        f"n <= {n_max_enum}", term_count_law())

    def partitions():
        # One column per k: at each n the k-columns sum to the unrestricted column.
        for n_max, tags in ((partition_n, (("f", relprime_column), ("phi", coprime_column))),
                            (diagonal_n, (("mbar", menon_column),))):
            rows = [(tag, column(fn, None, n_max),
                     [column(fn, k, n_max) for k in range(1, n_max + 1)]) for tag, fn in tags]
            for n in range(1, n_max + 1):
                yield _first(_same(n, None, whole[n - 1], sum(values[n - 1] for values in by_k),
                                   f"{tag}:") for tag, whole, by_k in rows)

    run("cardinality-partitions", "sums over k of the columns rebuild the unrestricted "
        f"values, f and phi n <= {partition_n}, mbar n <= {diagonal_n}", partitions())

    def totient_partial_sum():
        acc = 0
        for n, got in enumerate(column(relprime_column, 2)[1:], 2):
            acc += sieve.phi[n]
            yield _same(n, 2, acc, got)

    run("pair-count-totient-sum", f"fk(n, 2) column = phi(2) + ... + phi(n), "
        f"n <= {n_max_formula}", totient_partial_sum())

    def histogram_consistency():
        for n in range(1, n_max_enum + 1):
            hist = subset_gcd_histogram(n, cache=cache)
            sizes = (_same(n, j, relprime_subsets(n // j), count) for j, count in hist.items())
            yield _same(n, None, (1 << n) - 1, sum(hist.values())) or _first(sizes)

    run("gcd-histogram", f"class sizes match shrunk counts and sum to 2^n - 1, "
        f"n <= {n_max_enum}", histogram_consistency())

    return report
