"""Command-line surface: compute single values, emit tables, verify, bench.

Exit codes: 0 success, 1 verification or cross-strategy mismatch, 2 usage
error.  Values are printed in full decimal, however many digits they have;
JSON tables carry them as strings because they outgrow every fixed-width
numeric type.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from time import perf_counter

from .counts import (
    BLOCKED,
    COUNT_STRATEGIES,
    DIRECT,
    MemoCache,
    coprime_k_subsets,
    coprime_subsets,
    relprime_k_subsets,
    relprime_subsets,
)
from .menon import (
    AUTO,
    MENON_STRATEGIES,
    MenonParams,
    evaluate,
    menon_classic,
    menon_sum,
    menon_sum_k,
)
from .sieve import build_sieve
from .verification import run_verification

TAGS = ("f", "fk", "phi", "phik", "menon", "mbar", "mbark")
K_TAGS = frozenset({"fk", "phik", "mbark"})
STRATEGY_TAGS = frozenset({"mbar", "mbark"})


@dataclass
class SequenceTable:
    """Rows (n, value) for one function tag, n ascending from 1."""

    function: str
    k: int | None
    rows: list[tuple[int, int]]

    def to_csv(self) -> str:
        lines = ["n,value"]
        lines.extend(f"{n},{value}" for n, value in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "function": self.function,
            "k": self.k,
            "rows": [{"n": n, "value": str(value)} for n, value in self.rows],
        }
        return json.dumps(obj, indent=2) + "\n"


def _compute_one(tag, n, k, strategy, sieve, cache):
    if tag == "f":
        return relprime_subsets(n, sieve, cache=cache)
    if tag == "fk":
        return relprime_k_subsets(n, k, sieve, cache=cache)
    if tag == "phi":
        return coprime_subsets(n, sieve)
    if tag == "phik":
        return coprime_k_subsets(n, k, sieve)
    if tag == "menon":
        return menon_classic(n, sieve)
    params = MenonParams(n=n, k=k if tag == "mbark" else None, strategy=strategy)
    return evaluate(params, sieve, cache)


def _validate_k(parser: argparse.ArgumentParser, tag: str, k: int | None) -> None:
    if tag in K_TAGS and k is None:
        parser.error(f"--k is required for {tag}")
    if tag not in K_TAGS and k is not None:
        parser.error(f"--k does not apply to {tag}")


def cmd_compute(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_k(parser, args.function, args.k)
    if args.strategy != AUTO and args.function not in STRATEGY_TAGS:
        parser.error(f"--strategy does not apply to {args.function}")
    try:
        sieve = build_sieve(max(args.n, 1))
        value = _compute_one(
            args.function, args.n, args.k, args.strategy, sieve, MemoCache()
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(value)
    return 0


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _validate_k(parser, args.function, args.k)
    try:
        sieve = build_sieve(max(args.n_max, 1))
        cache = MemoCache()
        rows = [
            (n, _compute_one(args.function, n, args.k, AUTO, sieve, cache))
            for n in range(1, args.n_max + 1)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = SequenceTable(function=args.function, k=args.k, rows=rows)
    text = table.to_csv() if args.format == "csv" else table.to_json()
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        k_set = tuple(int(part) for part in args.k_set.split(","))
        if not k_set or any(k < 1 for k in k_set):
            raise ValueError
    except ValueError:
        parser.error(f"--k-set must be comma-separated positive integers, got {args.k_set!r}")
    try:
        report = run_verification(
            n_max_enum=args.n_max_enum,
            n_max_formula=args.n_max_formula,
            k_set=k_set,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.overall else 1


def _bench_runs(tag, n, k, strategy, sieve):
    # One benchmark evaluation; returns (value, subset-count evaluations).
    if tag in ("f", "fk"):
        if tag == "f":
            value = relprime_subsets(n, sieve, strategy=strategy)
        else:
            value = relprime_k_subsets(n, k, sieve, strategy=strategy)
        return value, 1
    cache = MemoCache()
    params = MenonParams(n=n, k=k if tag == "mbark" else None, strategy=strategy)
    value = evaluate(params, sieve, cache)
    return value, cache.misses


def cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    tag = args.function
    if tag not in ("f", "fk", "mbar", "mbark"):
        parser.error(f"bench supports f, fk, mbar, mbark; got {tag}")
    _validate_k(parser, tag, args.k)
    strategies = tuple(s.strip() for s in args.strategies.split(","))
    valid = COUNT_STRATEGIES if tag in ("f", "fk") else MENON_STRATEGIES
    for s in strategies:
        if s not in valid:
            parser.error(f"strategy {s!r} is not valid for {tag} (choose from {valid})")
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    try:
        sieve = build_sieve(max(args.n, 1))
        results = []
        for strategy in strategies:
            best = None
            value = evals = None
            for _ in range(args.reps):
                t0 = perf_counter()
                value, evals = _bench_runs(tag, args.n, args.k, strategy, sieve)
                dt = perf_counter() - t0
                best = dt if best is None else min(best, dt)
            results.append((strategy, best, value, evals))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    values = {value for _, _, value, _ in results}
    if len(values) > 1:
        print("error: strategies disagree, refusing to report timings", file=sys.stderr)
        for strategy, _, value, _ in results:
            digest = str(value)
            if len(digest) > 40:
                digest = f"{digest[:20]}...{digest[-20:]} ({len(digest)} digits)"
            print(f"  {strategy}: {digest}", file=sys.stderr)
        return 1

    value = values.pop()
    digits = len(str(value))
    shown = str(value) if digits <= 40 else f"<{digits} decimal digits>"
    print(f"{tag} n={args.n}" + (f" k={args.k}" if args.k is not None else "")
          + f"  reps={args.reps}  value={shown}")
    print("all strategies produced identical values")
    for strategy, seconds, _, evals in results:
        print(f"  {strategy:12s} {seconds * 1000:10.2f} ms   count-evaluations={evals}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menon-subsets",
        description="Exact subset-gcd counting functions and Menon-type gcd sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print one exact value")
    compute.add_argument("function", choices=TAGS)
    compute.add_argument("--n", type=int, required=True)
    compute.add_argument("--k", type=int)
    compute.add_argument("--strategy", choices=MENON_STRATEGIES, default=AUTO)

    table = sub.add_parser("table", help="emit a value table as CSV or JSON")
    table.add_argument("function", choices=TAGS)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--k", type=int)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", metavar="PATH")

    verify = sub.add_parser("verify", help="run the formula-vs-oracle suite")
    verify.add_argument("--n-max-enum", type=int, default=16)
    verify.add_argument("--n-max-formula", type=int, default=300)
    verify.add_argument("--k-set", default="1,2,3")
    verify.add_argument("--json", action="store_true")

    bench = sub.add_parser("bench", help="time evaluation strategies")
    bench.add_argument("function", choices=("f", "fk", "mbar", "mbark"))
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--strategies", required=True,
                       help="comma-separated (direct,blocked or theorem,prime-power,auto)")
    bench.add_argument("--k", type=int)
    bench.add_argument("--reps", type=int, default=3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": cmd_compute,
        "table": cmd_table,
        "verify": cmd_verify,
        "bench": cmd_bench,
    }[args.command]
    # Values are printed in full, often past the default 4300-digit limit of
    # int -> str; lift it for this call only (builds before 3.11 have none).
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return handler(parser, args)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())
