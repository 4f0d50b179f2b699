import json
import subprocess
import sys

import pytest

from menon_subsets import MemoCache, relprime_subsets
from menon_subsets.cli import _bench_runs, main
from menon_subsets.oracle import gcd_class_menon_sum

EXPECTED_F_CSV = "n,value\n1,1\n2,2\n3,5\n4,11\n5,26\n6,53\n"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "args, expected",
    [
        (("compute", "mbar", "--n", "6"), "320"),
        (("compute", "fk", "--n", "5", "--k", "1"), "1"),
        (("compute", "mbark", "--n", "4", "--k", "2"), "20"),
        (("compute", "f", "--n", "6"), "53"),
        (("compute", "phi", "--n", "1"), "1"),
        (("compute", "phik", "--n", "4", "--k", "2"), "5"),
        (("compute", "menon", "--n", "12"), "24"),
        (("compute", "mbar", "--n", "4", "--strategy", "prime-power"), "46"),
        (("compute", "mbar", "--n", "6", "--strategy", "theorem"), "320"),
    ],
)
def test_compute_values(capsys, args, expected):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == expected + "\n"


def test_compute_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute", "fk", "--n", "5"])  # k missing
    assert err.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as err:
        main(["compute", "f", "--n", "5", "--k", "2"])  # k not applicable
    assert err.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as err:
        main(["compute", "f", "--n", "5", "--strategy", "theorem"])
    assert err.value.code == 2
    capsys.readouterr()

    code, _, err_text = run_cli(capsys, "compute", "f", "--n", "0")
    assert code == 2
    assert "error" in err_text

    code, _, err_text = run_cli(
        capsys, "compute", "mbar", "--n", "6", "--strategy", "prime-power"
    )
    assert code == 2
    assert "prime power" in err_text


def test_table_csv_stdout(capsys):
    code, out, _ = run_cli(capsys, "table", "f", "--n-max", "6")
    assert code == 0
    assert out == EXPECTED_F_CSV


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "phi", "--n-max", "1")
    assert code == 0
    assert out == "n,value\n1,1\n"


def test_table_csv_file_bytes_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, "table", "f", "--n-max", "6", "--out", str(first))[0] == 0
    assert run_cli(capsys, "table", "f", "--n-max", "6", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes() == EXPECTED_F_CSV.encode()


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "mbark", "--k", "2", "--n-max", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["function"] == "mbark"
    assert payload["k"] == 2
    values = [int(row["value"]) for row in payload["rows"]]
    assert values == [0, 2, 9, 20, 46, 66]
    assert [row["n"] for row in payload["rows"]] == [1, 2, 3, 4, 5, 6]


def test_table_json_k_null_and_big_values_survive(capsys):
    code, out, _ = run_cli(capsys, "table", "f", "--n-max", "130", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] is None
    biggest = int(payload["rows"][-1]["value"])
    assert biggest.bit_length() >= 128  # needs exact string transport
    assert all(isinstance(row["value"], str) for row in payload["rows"])


def test_table_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err_text = run_cli(
        capsys, "table", "f", "--n-max", "3", "--out", str(target)
    )
    assert code == 2
    assert "cannot write" in err_text


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max-enum", "6", "--n-max-formula", "40"
    )
    assert code == 0
    assert "overall: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max-enum", "4", "--n-max-formula", "30", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert payload["checks"]


def test_verify_bad_k_set(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--k-set", "1,zero"])
    assert err.value.code == 2
    capsys.readouterr()


def test_bench_menon_strategies(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "mbar", "--n", "64",
        "--strategies", "theorem,prime-power,auto", "--reps", "1",
    )
    assert code == 0
    assert "identical values" in out
    assert "theorem" in out and "prime-power" in out


def test_bench_count_strategies(capsys):
    code, out, _ = run_cli(capsys, "bench", "f", "--n", "500", "--reps", "1")
    assert code == 0
    first, timing = out.splitlines()
    assert first.endswith(f"value=<{len(str(relprime_subsets(500)))} decimal digits>")
    assert "floor-counts" in timing and "count-evaluations=" in timing

    with pytest.raises(SystemExit) as err:
        main(["bench", "fk", "--n", "500", "--k", "2", "--strategies", "direct"])
    assert err.value.code == 2
    capsys.readouterr()


def test_bench_menon_defaults_to_auto(capsys):
    code, out, _ = run_cli(capsys, "bench", "mbark", "--n", "64", "--k", "2", "--reps", "1")
    assert code == 0
    assert out.splitlines()[1].split()[0] == "auto"


def test_bench_value_matches_gcd_class_oracle(capsys, sieve):
    code, out, _ = run_cli(
        capsys, "bench", "mbar", "--n", "64", "--strategies", "theorem", "--reps", "1"
    )
    assert code == 0
    reported = int(out.splitlines()[0].split("value=")[1])
    assert reported == gcd_class_menon_sum(64, sieve, cache=MemoCache())


def test_bench_runs_match_oracle_at_210(sieve):
    value, _ = _bench_runs("mbar", 210, None, "theorem")
    assert value == gcd_class_menon_sum(210, sieve, cache=MemoCache())


def test_bench_refuses_mismatched_values(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    fake_values = iter([(1, 1), (2, 1)])
    monkeypatch.setattr(cli_mod, "_bench_runs", lambda *args: next(fake_values))
    code = cli_mod.main(
        ["bench", "mbar", "--n", "16", "--strategies", "theorem,prime-power", "--reps", "1"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "disagree" in captured.err
    assert "ms" not in captured.out  # no timing table on mismatch


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod
    from menon_subsets.verification import CheckResult, VerificationReport

    failing = VerificationReport([CheckResult("probe", "scope", passed=False)])
    monkeypatch.setattr(cli_mod, "run_verification", lambda **kw: failing)
    code = cli_mod.main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert "overall: FAIL" in captured.out


def test_bench_rejects_wrong_strategy_for_tag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "f", "--n", "100", "--strategies", "theorem"])
    assert err.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as err:
        main(["bench", "mbar", "--n", "100", "--strategies", "blocked"])
    assert err.value.code == 2
    capsys.readouterr()


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "menon_subsets", "compute", "f", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "53"


def test_compute_prints_values_past_the_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "compute", "f", "--n", "15000")
    assert code == 0
    assert out.endswith("\n")
    digits = out.strip()
    assert digits.isdigit() and len(digits) == 4516
    assert sys.get_int_max_str_digits() == limit


def test_str_digit_limit_restored_after_failure(capsys):
    limit = sys.get_int_max_str_digits()
    code, _, _ = run_cli(capsys, "compute", "f", "--n", "0")
    assert code == 2
    assert sys.get_int_max_str_digits() == limit


def test_verify_refuses_vacuous_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max-enum", "0", "--n-max-formula", "1"
    )
    assert code == 1
    assert "SKIP  enumeration-counts " in out
    assert "overall: FAIL" in out


def test_verify_scopes_report_the_ranges_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max-enum", "4", "--n-max-formula", "1")
    lines = {line.split()[1]: line for line in out.splitlines() if "  " in line}
    assert "exactly n, n <= 1  (1 cases" in lines["full-set-diagonal"]
    assert "f and phi n <= 1, mbar n <= 1" in lines["cardinality-partitions"]
    assert "n <= 24" not in out
    assert len(lines) == 17


def test_table_rows_share_one_cache(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    caches = []
    original = cli_mod._compute_one

    def spy(tag, n, k, strategy, cache):
        caches.append(cache)
        return original(tag, n, k, strategy, cache)

    monkeypatch.setattr(cli_mod, "_compute_one", spy)
    code, out, _ = run_cli(capsys, "table", "fk", "--k", "3", "--n-max", "40")
    assert code == 0
    assert len(caches) == 40 and len({id(c) for c in caches}) == 1
    assert caches[0].misses == 40  # one new floor value per row
