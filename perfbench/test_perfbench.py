"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The count-repeat test runs every workload twice in traced mode; the whole
self-test takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import make_pins  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from reference import int_digest, load_pins, verdict  # noqa: E402
from tracing import divisor_pairs  # noqa: E402
from workloads import COMPOSITE_POOLS, PRIME_POWER_POOLS, WORKLOADS, Job, make_jobs  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = _run(workload, seed=11, trace=1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert runs[0]["correct"] and runs[1]["correct"]
    assert set(runs[0]["metrics"]) == set(PER_LAYER)
    counts = [{k: m["value"] for k, m in run["metrics"].items() if m["unit"] != "s"}
              for run in runs]
    assert counts[0] == counts[1]


def test_reference_check_rejects_a_wrong_value():
    lib = worker.load_library()
    jobs = [Job("mbar n=210", "gcdsum", n=210), Job("mbark n=210 k=2", "gcdsum", n=210, k=2)]
    sieve = worker.setup(lib, jobs)
    expected = worker.references(lib, jobs, sieve)
    for job in jobs:
        seconds, outcome = worker.run_job(lib, job, sieve)
        assert verdict(job.kind, outcome, expected[job.name]) is None
        value = lib.menon.evaluate(lib.menon.MenonParams(job.n, job.k), sieve)
        wrong = {"digest": int_digest(value + 1)}
        assert verdict(job.kind, wrong, expected[job.name])[0] == "mismatch"

    pins = load_pins()
    name = "cli compute fk --n 15000 --k 3"
    assert verdict("cli", {"digest": pins[name]}, [pins[name]]) is None
    assert verdict("cli", {"digest": "0" * 64}, [pins[name]])[0] == "mismatch"
    assert verdict("cli", {"digest": pins[name]}, [pins[name], "0" * 64])[0] == "mismatch"
    battery = {"checks": 17, "checks_failed": 1, "failed_checks": ["known-values"],
               "overall": False}
    assert verdict("verify", battery, [])[0] == "mismatch"
    assert verdict("cli", {"error": "ValueError: boom"}, [pins[name]])[0] == "error"


def test_each_job_time_is_corrected_by_the_calibrations_around_it():
    result = {"passes": [
        {"traced": False, "seconds": [1.0, 2.0], "calibration": [0.02, 0.04, 0.02]},
        {"traced": True, "seconds": [9.0, 9.0], "calibration": [0.02, 0.02, 0.02]},
        {"traced": False, "seconds": [0.5, 1.0], "calibration": [0.01, 0.01, 0.01]},
    ]}
    first = [1.0 / 0.03, 2.0 / 0.03]
    second = [0.5 / 0.01, 1.0 / 0.01]
    expected = [REFERENCE_S * (a + b) / 2 for a, b in zip(first, second)]
    assert run.job_reference_seconds(result) == pytest.approx(expected)


def test_pins_are_current():
    assert make_pins.pinned_digests() == load_pins()


def test_every_value_a_seed_can_draw_has_a_pin():
    pins = load_pins()
    for workload in WORKLOADS:
        for seed in range(40):
            for job in make_jobs(workload, seed):
                assert job.kind == "verify" or job.name in pins


def _prime_power(n: int) -> bool:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


@pytest.mark.parametrize("pools, prime_powers", [(COMPOSITE_POOLS, False),
                                                  (PRIME_POWER_POOLS, True)])
def test_pools_take_the_intended_route(pools, prime_powers):
    for pool in pools.values():
        assert all(_prime_power(n) == prime_powers for n in pool)
    assert make_jobs("gcdsum_composite", 5) == make_jobs("gcdsum_composite", 5)


def test_divisor_pairs_by_brute_force():
    for n in (1, 2, 12, 30, 64, 210, 997, 2520):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        squarefree = [e for e in divs if all(e % (p * p) for p in range(2, e + 1))]
        assert divisor_pairs(n) == sum(1 for d in divs for e in squarefree if gcd(d, e) == 1)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("cli_sweep", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
