#!/usr/bin/env python3
"""Regenerate the reference value tables as CSV files.

Writes one file per function tag into the output directory (default
./tables), each through the `table` command of the CLI.  The first six rows
of f, fk(k=2), mbar and mbark(k=2) are the classically tabulated values;
everything beyond is fresh exact computation.
"""

import argparse
import pathlib
import sys

from menon_subsets.cli import main as cli_main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=60)
    parser.add_argument("--out-dir", default="tables")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("f", None),
        ("fk", 2),
        ("phi", None),
        ("phik", 2),
        ("menon", None),
        ("mbar", None),
        ("mbark", 2),
    ]
    for tag, k in jobs:
        name = tag if k is None else f"{tag}{k}"
        path = out_dir / f"{name}.csv"
        argv = ["table", tag, "--n-max", str(args.n_max), "--out", str(path)]
        if k is not None:
            argv += ["--k", str(k)]
        if cli_main(argv) != 0:
            sys.exit(f"could not write {path}")
        print(f"wrote {path} ({args.n_max} rows)")


if __name__ == "__main__":
    main()
