"""Command-line surface: compute single values, emit tables, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Values are
printed in full decimal, however many digits they have; JSON tables carry
them as strings because they outgrow every fixed-width numeric type.
`bench` prints a value and its best time over --reps evaluations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from time import perf_counter

from .counts import (_floor_count, coprime_column, coprime_subsets, relprime_column,
                     relprime_subsets)
from .menon import MenonParams, divisor_pairs, evaluate, menon_classic, menon_column
from .sieve import factorize
from .verification import run_verification

TAGS = ("f", "fk", "phi", "phik", "menon", "mbar", "mbark")
K_TAGS = frozenset({"fk", "phik", "mbark"})
SUM_TAGS = frozenset({"mbar", "mbark"})
MAX_N = 1 << 20  # compute, bench: a value at n has about n bits, here 1 Mbit
# table: n_max^2 / 2 = 8 Mbit of values; on a 2-vCPU Xeon mbar and mbark --k 2048 ~0.3 s
MAX_TABLE_ROWS = 1 << 12
MAX_FORMULA_N = 4000  # verify: ~8 s on a 2-vCPU Xeon, growing about as n^2
MAX_K_VALUES = 10  # verify: each k adds up to ~0.6 s at MAX_FORMULA_N, most near k = 1300
MAX_REPS = 100  # bench: a fresh mbar evaluation at MAX_N takes up to ~0.04 s, here ~4 s


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
        # The bytes of json.dumps(obj, indent=2) + "\n" for obj = {"function",
        # "k", "rows": [{"n", "value": str(value)}]}, written row by row: with
        # an indent, json falls back to its pure-Python encoder.
        rows = ",".join(f'\n    {{\n      "n": {n},\n      "value": "{value}"\n    }}'
                        for n, value in self.rows) + ("\n  " if self.rows else "")
        return (f'{{\n  "function": {json.dumps(self.function)},\n'
                f'  "k": {json.dumps(self.k)},\n  "rows": [{rows}]\n}}\n')


def _compute_one(tag, n, k):
    # k is None unless tag is in K_TAGS (main checks).
    if tag in ("f", "fk"):
        return relprime_subsets(n, k)
    if tag in ("phi", "phik"):
        return coprime_subsets(n, k)
    if tag == "menon":
        return menon_classic(n)
    return evaluate(MenonParams(n, k))


def cmd_compute(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    print(_compute_one(args.function, args.n, args.k))
    return 0


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not 1 <= args.n_max <= MAX_TABLE_ROWS:
        parser.error(f"--n-max must be in 1..{MAX_TABLE_ROWS} (output-size bound)")
    if args.function in ("f", "fk"):
        values = relprime_column(args.n_max, args.k)
    elif args.function in ("phi", "phik"):
        values = coprime_column(args.n_max, args.k)
    elif args.function in SUM_TAGS:
        values = menon_column(args.n_max, args.k)
    else:
        values = [menon_classic(n) for n in range(1, args.n_max + 1)]
    table = SequenceTable(function=args.function, k=args.k, rows=list(enumerate(values, 1)))
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
    if min(args.n_max_enum, args.n_max_formula) < 0:
        parser.error("--n-max-enum and --n-max-formula must be >= 0")
    if args.n_max_formula > MAX_FORMULA_N:
        parser.error(f"--n-max-formula {args.n_max_formula} is past the bound {MAX_FORMULA_N}")
    try:
        k_set = tuple(dict.fromkeys(int(part) for part in args.k_set.split(",")))
        if not k_set or any(k < 1 for k in k_set):
            raise ValueError
    except ValueError:
        parser.error(f"--k-set must be comma-separated positive integers, got {args.k_set!r}")
    if len(k_set) > MAX_K_VALUES:
        parser.error(f"--k-set has {len(k_set)} distinct values, past the bound {MAX_K_VALUES}")
    report = run_verification(n_max_enum=args.n_max_enum,
                              n_max_formula=args.n_max_formula, k_set=k_set)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.overall else 1


def _bench_runs(tag, n, k):
    # One benchmark evaluation; returns (value, subset-count evaluations): the floor
    # values of n the count core solves for, none for phi, phik and menon.
    value = _compute_one(tag, n, k)
    return value, _floor_count(n) if tag in ("f", "fk", "mbar", "mbark") else 0


def _decimal_digits(value: int) -> int:
    """len(str(value)) for value >= 0, without building the string."""
    # b bits give d - 1 or d digits, d = floor(b log10 2) + 1; 20 digits of
    # log10 2 keep that floor exact for every b up to 3 * 10^6 (checked).
    d = value.bit_length() * 30102999566398119521 // 10**20 + 1
    return d if value >= 10 ** (d - 1) else max(d - 1, 1)


def cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    tag = args.function
    if not 1 <= args.reps <= MAX_REPS:
        parser.error(f"--reps must be in 1..{MAX_REPS} (run-time bound)")
    best = float("inf")
    for _ in range(args.reps):
        t0 = perf_counter()
        value, evals = _bench_runs(tag, args.n, args.k)
        best = min(best, perf_counter() - t0)

    # The d > 1 pairs, which the weight pass walks; the d = 1 ones are summed in closed form.
    pairs = (f"   divisor-pairs={sum(d > 1 for d, _, _ in divisor_pairs(factorize(args.n)))}"
             if tag in SUM_TAGS else "")
    digits = _decimal_digits(value)
    shown = str(value) if digits <= 40 else f"<{digits} decimal digits>"
    print(f"{tag} n={args.n}" + (f" k={args.k}" if args.k is not None else "")
          + f"  reps={args.reps}  value={shown}")
    print(f"  best {best * 1000:.2f} ms   count-evaluations={evals}{pairs}")
    return 0


@cache  # one parser per process: each main call only parses; its help reads the bounds once
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

    table = sub.add_parser("table", help="emit a value table as CSV or JSON")
    table.add_argument("function", choices=TAGS)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--k", type=int)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", metavar="PATH")

    verify = sub.add_parser("verify", help="run the formula-vs-oracle suite")
    verify.add_argument("--n-max-enum", type=int, default=16)
    verify.add_argument("--n-max-formula", type=int, default=300,
                        help=f"bound of the polynomial-cost sweeps, at most {MAX_FORMULA_N}")
    verify.add_argument("--k-set", default="1,2,3",
                        help=f"comma-separated k >= 1, at most {MAX_K_VALUES} distinct values")
    verify.add_argument("--json", action="store_true")

    bench = sub.add_parser("bench", help="time one evaluation, best of --reps")
    bench.add_argument("function", choices=("f", "fk", "mbar", "mbark"))
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--k", type=int)
    bench.add_argument("--reps", type=int, default=3, help=f"at most {MAX_REPS}")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("compute", "bench") and args.n > MAX_N:
        parser.error(f"--n {args.n} is past the output-size bound {MAX_N}")
    if args.command != "verify" and (args.function in K_TAGS) != (args.k is not None):
        rule = "is required for" if args.k is None else "does not apply to"
        parser.error(f"--k {rule} {args.function}")
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
    except ValueError as exc:  # bad values past the parser: n < 1, k < 1, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())
