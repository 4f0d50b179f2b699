"""Benchmark entry point: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gcdsum_composite, gcdsum_prime_power, cli_sweep and verify_battery
(see workloads.py).  The workload runs in a fresh child interpreter
(worker.py) with one thread.  With --trace 0 the run first starts nine
interpreters that only set up, to sample set-up time, and reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics and the
tracing overhead.  End-to-end times
are in reference seconds (see calibration.py); per-layer times are plain
seconds.  Every output is checked against its reference before any timing
is reported.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record of the run
(environment, raw samples, chosen inputs, failed jobs) is printed on the line
before it and written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from calibration import calibrate, reference_seconds  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
TIME_LIMIT_S = 170  # the whole run, children included


def _worker(args, deadline: float, setup_only: bool = False) -> tuple[dict, float]:
    """Run worker.py to completion; return its result and its set-up time,
    measured from just before the interpreter is started until it is ready."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready_ns"] - spawned) / 1e9


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def job_reference_seconds(result: dict) -> list[float]:
    """Per job, the median over untraced passes of its time in reference
    seconds, each time corrected by the calibrations just before and after."""
    samples = [[reference_seconds(t, before, after)
                for t, before, after in zip(p["seconds"], p["calibration"], p["calibration"][1:])]
               for p in result["passes"] if not p["traced"]]
    return [statistics.median(job) for job in zip(*samples)]


def end_to_end(result: dict, setup_samples: list[float]) -> dict[str, float]:
    """wall_s is the sum over jobs of each job's median time, slowest_job_s
    the largest of them; both, like setup_s, in reference seconds."""
    per_job = job_reference_seconds(result)
    failed_jobs = len(result["failures"])
    return {
        "wall_s": sum(per_job),
        "slowest_job_s": max(per_job),
        "peak_rss_mib": result["peak_rss_mib"],
        "ok_frac": 1 - failed_jobs / result["attempted"],
        "setup_s": statistics.median(setup_samples),
    }


def setup_sample(args, deadline: float) -> tuple[float, float]:
    """(reference seconds, seconds) of one interpreter that only sets up,
    between calibrations run here just before and just after it."""
    before = calibrate()
    seconds = _worker(args, deadline, setup_only=True)[1]
    return reference_seconds(seconds, before, calibrate()), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "menon_subsets" / "__init__.py").is_file():
        print(f"error: no menon_subsets package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = [setup_sample(args, deadline) for _ in range(0 if args.trace else SETUP_PROBES)]
        result = _worker(args, deadline)[0]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [ref for ref, _ in setup]

    failures = result["failures"]
    mismatches = [f for f in failures if f["kind"] == "mismatch"]
    attempted = result["attempted"]
    if args.trace:
        table, metrics = PER_LAYER, result["layers"]
    else:
        table, metrics = END_TO_END, end_to_end(result, setup_samples)
    detail = {
        "environment": environment(args),
        "jobs": result["jobs"],
        "pass_seconds": result["passes"],
        "setup_samples_s": [seconds for _, seconds in setup],
        "setup_samples_reference_s": setup_samples,
        "job_median_reference_s": [] if args.trace else job_reference_seconds(result),
        "attempted": attempted,
        "failed_frac": len(failures) / attempted,
        "failed_jobs": sorted({f["job"]: f["reason"] for f in failures}.items()),
        "mismatches": mismatches,
        "metrics": metrics,
    }
    if args.trace:
        detail.update(absent=result["absent"], unsteady_counts=result["unsteady_counts"],
                      spans_file=result["spans_file"])

    env = detail["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} passes={len(result['passes'])}")
    for job in result["jobs"]:
        print(f"  job: {job['name']}")
    for name, (unit, _) in table.items():
        shown = f"{metrics[name]:.6g}" if name in metrics else "absent"
        print(f"  {name:28s} {shown:>12s} {unit}")
    if not args.trace:
        walls = statistics.median(sum(p["seconds"]) for p in result["passes"])
        print(f"  in plain seconds: median pass {walls:.6g} s, "
              f"set-up {statistics.median(detail['setup_samples_s']):.6g} s")
    print(f"  {'failed_frac':28s} {detail['failed_frac']:12.6g} frac "
          f"({len(failures)} of {attempted} jobs)")
    for job, reason in detail["failed_jobs"]:
        print(f"  FAILED {job}: {reason}")
    if args.trace:
        if result["unsteady_counts"]:
            print(f"  WARNING counts differ between traced passes: {result['unsteady_counts']}")
        print(f"  spans written to {result['spans_file']}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
