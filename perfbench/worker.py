"""One workload in a fresh interpreter: set up, time passes, check every output.

run.py starts this file as a child process and reads the JSON object it
prints as its last line of standard output.  With --setup-only it stops once
set-up is done, which run.py uses to sample set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MODULES = ("sieve", "counts", "menon", "oracle", "verification", "cli")

sys.path.insert(0, str(HERE))

from calibration import calibrate  # noqa: E402
from metrics import PER_LAYER  # noqa: E402
from reference import int_digest, load_pins, text_digest, verdict  # noqa: E402
from tracing import NEEDS, Tracer, layer_metrics  # noqa: E402
from workloads import VERIFY_ARGS, make_jobs  # noqa: E402


def load_library() -> SimpleNamespace:
    """Import the package from this checkout's src/; a module that no longer
    exists is None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    lib = {}
    for name in MODULES:
        try:
            lib[name] = importlib.import_module(f"menon_subsets.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"menon_subsets.{name}":
                raise
            lib[name] = None
    origin = Path(sys.modules["menon_subsets"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"imported menon_subsets from {origin}, not from {src}")
    return SimpleNamespace(**lib)


def _accepted(fn, **optional) -> dict:
    """The keyword arguments among `optional` that fn accepts."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in optional.items() if k in params and v is not None}


def _new_cache(lib):
    cls = getattr(lib.counts, "MemoCache", None)
    return cls() if cls is not None else None


def _timed(fn, *args, **kwargs):
    """(seconds, result, error) of one call; an exception is the job's failure."""
    start = perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except Exception as exc:  # counted as a failed job, never fatal
        result, error = None, f"{type(exc).__name__}: {exc}"[:300]
    return perf_counter() - start, result, error


def _cli_main(lib, argv):
    try:
        return lib.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def run_job(lib, job, sieve) -> tuple[float, dict]:
    if job.kind == "gcdsum":
        evaluate = lib.menon.evaluate
        kwargs = _accepted(evaluate, sieve=sieve, cache=_new_cache(lib))
        params = lib.menon.MenonParams(job.n, job.k)
        seconds, value, error = _timed(evaluate, params, **kwargs)
        if error:
            return seconds, {"error": error}
        return seconds, {"digest": int_digest(value), "bits": value.bit_length()}
    if job.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            seconds, code, error = _timed(_cli_main, lib, job.argv)
        text = out.getvalue()
        if error is None and code not in (0, None):
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        return seconds, {"digest": text_digest(text), "bytes": len(text.encode()), "error": error}
    seconds, report, error = _timed(lib.verification.run_verification, **VERIFY_ARGS)
    if error:
        return seconds, {"error": error}
    failed = [c.name for c in report.checks if not c.passed]
    return seconds, {"checks": len(report.checks), "checks_failed": len(failed),
                     "failed_checks": failed, "overall": bool(report.overall)}


def references(lib, jobs, sieve) -> dict[str, list[str]]:
    """Expected digests per job, all from outside every timed region: the
    pinned digest from pins.json, and for gcd sums also the oracle's
    gcd-class route, computed here.  The verify battery judges itself."""
    pins = load_pins()
    expected = {job.name: [pins[job.name]] if job.name in pins else [] for job in jobs}
    oracle = lib.oracle
    cache = _new_cache(lib)
    for job in jobs:
        if job.kind != "gcdsum":
            continue
        if job.k is None:
            fn, args, extra = oracle.gcd_class_menon_sum, (job.n,), {}
        elif hasattr(oracle, "gcd_class_menon_sum_k"):  # the _k twin may merge into k=...
            fn, args, extra = oracle.gcd_class_menon_sum_k, (job.n, job.k), {}
        else:
            fn, args, extra = oracle.gcd_class_menon_sum, (job.n,), {"k": job.k}
        if "sieve" in inspect.signature(fn).parameters and sieve is None:
            sieve = lib.sieve.build_sieve(max(j.n for j in jobs if j.kind == "gcdsum"))
        extra.update(_accepted(fn, sieve=sieve, cache=cache))
        expected[job.name].append(int_digest(fn(*args, **extra)))
    return expected


def setup(lib, jobs):
    """The one-time work the library needs before the first job: for the gcd
    sums, a sieve up to the largest n when `evaluate` takes one."""
    sizes = [j.n for j in jobs if j.kind == "gcdsum"]
    if sizes and "sieve" in inspect.signature(lib.menon.evaluate).parameters:
        return lib.sieve.build_sieve(max(sizes))
    return None


def run_passes(lib, jobs, sieve, seconds, tracer):
    """Repeat the job list while the next pass is expected to end within
    `seconds`.  With a tracer, passes alternate untraced and traced, starting
    untraced, and there is at least one of each.  The calibration runs
    before the first job and after every job, so a pass records one more
    calibration time than job times."""
    passes = []
    start = perf_counter()
    last_calibration = calibrate()
    while True:
        elapsed = perf_counter() - start
        enough = {p["traced"] for p in passes} == ({False} if tracer is None else {False, True})
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        traced = tracer is not None and len(passes) % 2 == 1
        record = {"traced": traced, "seconds": [], "calibration": [last_calibration],
                  "outcomes": []}
        if traced:
            tracer.reset_counts()
            first = len(tracer.spans)
            tracer.install()
        for job in jobs:
            job_seconds, outcome = run_job(lib, job, sieve)
            last_calibration = calibrate()
            record["seconds"].append(job_seconds)
            record["calibration"].append(last_calibration)
            record["outcomes"].append(outcome)
        if traced:
            tracer.uninstall()
            record["layers"] = layer_metrics(tracer, tracer.spans[first:])
            record["spans"] = [first, len(tracer.spans)]
        passes.append(record)


def _job_counts(jobs, outcomes) -> dict[str, int]:
    total = {"verification.checks": 0, "verification.checks_failed": 0, "cli.bytes_out": 0}
    for job, outcome in zip(jobs, outcomes):
        if job.kind == "verify":
            total["verification.checks"] += outcome.get("checks", 0)
            total["verification.checks_failed"] += outcome.get("checks_failed", 0)
        elif job.kind == "cli":
            total["cli.bytes_out"] += outcome.get("bytes", 0)
    return total


def per_layer(jobs, passes, setup_layers, tracer) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics for set-up plus one traced pass: times are medians
    over traced passes, counts come from the first traced pass and must be
    the same in every traced pass."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values, unsteady = {}, []
    for name, (unit, _) in PER_LAYER.items():
        if name not in setup_layers:
            continue
        samples = [p["layers"][name] for p in traced]
        if unit == "s":
            values[name] = setup_layers[name] + statistics.median(samples)
        else:
            if len(set(samples)) > 1:
                unsteady.append(name)
            values[name] = (max(setup_layers[name], samples[0]) if name == "sieve.limit"
                            else setup_layers[name] + samples[0])
    hits, misses = values["counts.cache_hits"], values["counts.cache_misses"]
    values["counts.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values.update(_job_counts(jobs, traced[0]["outcomes"]))

    # Big-int accumulation estimate: at each n, the mbar call minus the mbark
    # call (same loop, n-bit versus small terms), from the untraced passes.
    by_n: dict[int, dict] = {}
    for i, job in enumerate(jobs):
        if job.kind == "gcdsum":
            by_n.setdefault(job.n, {})[job.k] = statistics.median(p["seconds"][i] for p in untraced)
    values["menon.bigint_s"] = sum(t[None] - t[2] for t in by_n.values() if None in t and 2 in t)
    walls = [[sum(p["seconds"]) for p in group] for group in (traced, untraced)]
    values["trace.overhead_s"] = statistics.median(walls[0]) - statistics.median(walls[1])
    absent = sorted(name for name, needs in NEEDS.items() if needs in tracer.absent)
    for name in absent:
        values.pop(name, None)
    return values, absent, unsteady


def write_spans(tracer, passes, workload, seed) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {
        "fields": ["id", "parent", "name", "start_s", "end_s", "self_s"],
        "note": "count calls answered by the cache are folded into their parent span",
        "passes": [p["spans"] for p in passes if p["traced"]],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = make_jobs(args.workload, args.seed)
    lib = load_library()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare()
        tracer.install()
    sieve = setup(lib, jobs)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0
    setup_layers = {}
    if tracer is not None:
        tracer.uninstall()
        setup_layers = layer_metrics(tracer, tracer.spans)

    passes = run_passes(lib, jobs, sieve, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = references(lib, jobs, sieve)
    attempted, failures = 0, []
    for index, record in enumerate(passes):
        for job, outcome in zip(jobs, record["outcomes"]):
            attempted += 1
            bad = verdict(job.kind, outcome, expected[job.name])
            if bad is not None:
                failures.append({"pass": index, "job": job.name, "kind": bad[0], "reason": bad[1]})

    result = {
        "ready_ns": ready_ns,
        "jobs": [{"name": j.name, "kind": j.kind, "n": j.n, "k": j.k, "argv": list(j.argv)}
                 for j in jobs],
        "passes": [{"traced": p["traced"], "seconds": p["seconds"],
                    "calibration": p["calibration"]} for p in passes],
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer is not None:
        layers, absent, unsteady = per_layer(jobs, passes, setup_layers, tracer)
        result.update(layers=layers, absent=absent, unsteady_counts=unsteady,
                      spans_file=write_spans(tracer, passes, args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
