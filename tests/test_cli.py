import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import menon_subsets
from menon_subsets import MemoCache, coprime_subsets, menon_sum, relprime_subsets
from menon_subsets.cli import K_TAGS, TAGS, SequenceTable, _bench_runs, _decimal_digits, main
from menon_subsets.oracle import gcd_class_menon_sum
from menon_subsets.verification import F2_PREFIX, F_PREFIX, MBAR2_PREFIX, MBAR_PREFIX, PHI_PREFIX

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
        (("compute", "mbar", "--n", "4"), "46"),  # a prime power takes the same route
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

    code, _, err_text = run_cli(capsys, "compute", "f", "--n", "0")
    assert code == 2
    assert "error" in err_text


@pytest.mark.parametrize("argv", [
    ["compute", "mbar", "--n", "6", "--strategy", "theorem"],
    ["bench", "mbar", "--n", "64", "--strategies", "auto"],
])
def test_route_options_are_gone(capsys, argv):
    # Every gcd sum takes the one triple divisor sum: nothing to choose.
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: ") and f"unrecognized arguments: {argv[-2]}" in err_text


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


def indented_json(table):
    """The json module's indented encoding of a table: what to_json must write."""
    obj = {
        "function": table.function,
        "k": table.k,
        "rows": [{"n": n, "value": str(value)} for n, value in table.rows],
    }
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("n_max", ["1", "2", "37"])
@pytest.mark.parametrize("tag", TAGS)
def test_table_json_is_the_indented_json_encoding(capsys, tag, n_max):
    k = ("--k", "2") if tag in K_TAGS else ()
    code, csv_out, _ = run_cli(capsys, "table", tag, "--n-max", n_max, *k)
    assert code == 0
    rows = [tuple(map(int, line.split(","))) for line in csv_out.splitlines()[1:]]
    code, out, _ = run_cli(capsys, "table", tag, "--n-max", n_max, *k, "--format", "json")
    assert code == 0
    assert out == indented_json(SequenceTable(tag, 2 if k else None, rows))
    for k_value in (None, 2):
        table = SequenceTable(tag, k_value, rows)
        assert table.to_json() == indented_json(table)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(TAGS),
    st.none() | st.integers(1, 10**6),
    st.lists(st.tuples(st.integers(1, 4096), st.integers(0, (1 << 10**4) - 1)), max_size=12),
)
def test_table_json_matches_the_indented_encoding_for_any_rows(tag, k, rows):
    table = SequenceTable(tag, k, rows)
    assert table.to_json() == indented_json(table)


@pytest.mark.parametrize("k", [None, 3])
def test_table_json_without_rows(k):
    table = SequenceTable("mbar", k, [])
    assert table.to_json() == indented_json(table)
    assert json.loads(table.to_json()) == {"function": "mbar", "k": k, "rows": []}


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


def test_bench_value_matches_gcd_class_oracle(capsys, sieve):
    code, out, _ = run_cli(capsys, "bench", "mbar", "--n", "64", "--reps", "1")
    assert code == 0
    header, timing = out.splitlines()
    reported = int(header.split("value=")[1])
    assert reported == gcd_class_menon_sum(64, sieve, cache=MemoCache())
    # 64 = 2^6: the d > 1 pairs (2^s, 1) for s = 1..6, not (1, 1) and (1, 2)
    assert "count-evaluations=" in timing and timing.endswith("divisor-pairs=6")


def test_bench_runs_match_oracle_at_210(sieve):
    value, _ = _bench_runs("mbar", 210, None)
    assert value == gcd_class_menon_sum(210, sieve, cache=MemoCache())


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod
    from menon_subsets.verification import CheckResult, VerificationReport

    failing = VerificationReport([CheckResult("probe", "scope", passed=False)])
    monkeypatch.setattr(cli_mod, "run_verification", lambda **kw: failing)
    code = cli_mod.main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert "overall: FAIL" in captured.out


def test_module_invocation_round_trip():
    # The child imports the package from where this process did: its src/.
    src = Path(menon_subsets.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "menon_subsets", "compute", "f", "--n", "6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "53"


def test_table_out_reproduces_the_tabulated_prefixes(tmp_path, capsys):
    # The reference tables as CSV files, one `table --out` each.
    for name, tag, k, prefix in (("f", "f", None, F_PREFIX), ("fk2", "fk", 2, F2_PREFIX),
                                 ("phi", "phi", None, PHI_PREFIX),
                                 ("mbar", "mbar", None, MBAR_PREFIX),
                                 ("mbark2", "mbark", 2, MBAR2_PREFIX)):
        path = tmp_path / f"{name}.csv"
        argv = ["table", tag, "--n-max", "12", "--out", str(path)] + (["--k", str(k)] if k else [])
        assert main(argv) == 0, name
        lines = path.read_text().splitlines()
        assert lines[0] == "n,value" and len(lines) == 13
        values = tuple(int(line.split(",")[1]) for line in lines[1:])
        assert values[:len(prefix)] == prefix, name
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("argv", [["--n-max-enum", "-3"], ["--n-max-formula", "-5"]])
def test_verify_rejects_negative_bounds(capsys, monkeypatch, argv):
    import menon_subsets.cli as cli_mod

    def fail(**kwargs):
        raise AssertionError("verified with a negative bound")

    monkeypatch.setattr(cli_mod, "run_verification", fail)
    with pytest.raises(SystemExit) as err:
        main(["verify"] + argv)
    assert err.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_verify_scopes_report_the_ranges_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max-enum", "4", "--n-max-formula", "1")
    lines = {line.split()[1]: line for line in out.splitlines() if "  " in line}
    assert "exactly n, n <= 1  (1 cases" in lines["full-set-diagonal"]
    assert "f and phi n <= 1, mbar n <= 1" in lines["cardinality-partitions"]
    assert "n <= 24" not in out
    assert len(lines) == 16


def _assert_tables_take_one_column(capsys, monkeypatch, jobs, n_max):
    # Each (tag, k, per-n function) table equals its per-n values while
    # factorize and _compute_one fail: no row is evaluated on its own.
    import menon_subsets.cli as cli_mod
    import menon_subsets.counts as counts_mod
    import menon_subsets.menon as menon_mod

    expected = {tag: [f"{n},{value(n, k)}" for n in range(1, n_max + 1)]
                for tag, k, value in jobs}

    def fail(*args):
        raise AssertionError("a table evaluated a row on its own")

    for module in (cli_mod, counts_mod, menon_mod):
        monkeypatch.setattr(module, "factorize", fail)
    monkeypatch.setattr(cli_mod, "_compute_one", fail)
    for tag, k, _ in jobs:
        argv = ["table", tag] + (["--k", str(k)] if k else []) + ["--n-max", str(n_max)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines() == ["n,value"] + expected[tag]


def test_count_tables_take_one_column(capsys, monkeypatch):
    # An f, fk, phi or phik table is one column: no row is evaluated on its
    # own and no n is factored.
    jobs = [("f", None, relprime_subsets), ("fk", 3, relprime_subsets),
            ("phi", None, coprime_subsets), ("phik", 2, coprime_subsets)]
    _assert_tables_take_one_column(capsys, monkeypatch, jobs, 40)


@pytest.mark.parametrize("tag, k", [("mbar", None), ("mbark", "2")])
def test_sum_tables_read_every_count_off_the_rows(capsys, monkeypatch, tag, k):
    # An mbar or mbark table is one prefix sum per (d, delta^-1 mod d) up to n_max
    # (menon.menon_column): it factors no n, takes every F(q) and every step
    # F(q) - F(q - 1) from one relprime_column F(1..n_max), and its rows are the
    # per-n sums.
    import menon_subsets.menon as menon_mod

    columns = []
    original = menon_mod.relprime_column

    def spy(*args):
        columns.append(args)
        return original(*args)

    monkeypatch.setattr(menon_mod, "relprime_column", spy)
    _assert_tables_take_one_column(capsys, monkeypatch,
                                   [(tag, int(k) if k else None, menon_sum)], 60)
    assert columns == [(60, int(k) if k else None)]


@pytest.mark.parametrize("tag, n, k, evaluations", [
    ("f", 1, None, 1), ("fk", 30, 3, 10), ("fk", 7, 7, 4), ("mbar", 55440, None, 469),
    ("phi", 60, None, 0)])
def test_bench_counts_the_floor_values_a_cold_call_solves(capsys, tag, n, k, evaluations):
    # count-evaluations= is the number of floor values of n, T + isqrt(n) with
    # T = n // (isqrt(n) + 1), for the counts and gcd sums on the count core, and 0
    # for phi and phik, which take no floor value; bench itself takes f, fk, mbar, mbark.
    value, counted = _bench_runs(tag, n, k)
    assert counted == evaluations
    if tag == "phi":
        assert value == coprime_subsets(n)
        return
    argv = ["bench", tag, "--n", str(n), "--reps", "1"] + (["--k", str(k)] if k else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f"   count-evaluations={evaluations}" in out.splitlines()[1]


def test_bench_reports_divisor_pairs_for_gcd_sums_only(capsys):
    # 55440 = 2^4 3^2 5 7 11: (4 + 2)(2 + 2) 3^3 = 648 pairs, less the 2^5 with d = 1
    code, out, _ = run_cli(capsys, "bench", "mbark", "--n", "55440", "--k", "2", "--reps", "1")
    assert code == 0
    assert out.splitlines()[1].endswith("divisor-pairs=616")
    code, out, _ = run_cli(capsys, "bench", "f", "--n", "500", "--reps", "1")
    assert code == 0
    _, timing = out.splitlines()
    assert "count-evaluations=" in timing and "divisor-pairs" not in timing


@pytest.mark.parametrize("n_max", ["0", "-1", "-100"])
def test_table_rejects_n_max_below_one(capsys, n_max):
    with pytest.raises(SystemExit) as err:
        main(["table", "f", "--n-max", n_max])
    assert err.value.code == 2
    assert "--n-max" in capsys.readouterr().err


def _refuse_evaluation(monkeypatch):
    import menon_subsets.cli as cli_mod

    def fail(*args):
        raise AssertionError("evaluated past the size bound")

    monkeypatch.setattr(cli_mod, "_compute_one", fail)
    monkeypatch.setattr(cli_mod, "relprime_column", fail)
    monkeypatch.setattr(cli_mod, "coprime_column", fail)
    monkeypatch.setattr(cli_mod, "menon_column", fail)
    monkeypatch.setattr(cli_mod, "_bench_runs", fail)


@pytest.mark.parametrize("argv", [
    ["compute", "f", "--n", "100000000"],
    ["compute", "mbark", "--n", "1048577", "--k", "2"],
    ["bench", "mbar", "--n", "100000000"],
    ["table", "f", "--n-max", "100000"],
])
def test_size_guard_exits_before_evaluating(capsys, monkeypatch, argv):
    _refuse_evaluation(monkeypatch)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "bound" in capsys.readouterr().err


def test_size_guard_follows_the_bounds(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_N", 50)
    monkeypatch.setattr(cli_mod, "MAX_TABLE_ROWS", 10)
    assert run_cli(capsys, "compute", "mbar", "--n", "50")[0] == 0
    assert run_cli(capsys, "bench", "f", "--n", "50", "--reps", "1")[0] == 0
    code, out, _ = run_cli(capsys, "table", "f", "--n-max", "10")
    assert code == 0 and len(out.splitlines()) == 11
    _refuse_evaluation(monkeypatch)
    for argv in (["compute", "mbar", "--n", "51"], ["bench", "f", "--n", "51"],
                 ["table", "f", "--n-max", "11"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_bench_reps_bound(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    limit = cli_mod.MAX_REPS
    code, out, _ = run_cli(capsys, "bench", "f", "--n", "10", "--reps", str(limit))
    assert code == 0 and f"reps={limit}" in out
    _refuse_evaluation(monkeypatch)
    for past in (limit + 1, 100_000):
        with pytest.raises(SystemExit) as err:
            main(["bench", "mbar", "--n", "1048576", "--reps", str(past)])
        assert err.value.code == 2
        assert f"1..{limit}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert f"at most {limit}" in capsys.readouterr().out


def test_size_bounds_admit_the_documented_workloads():
    import menon_subsets.cli as cli_mod

    assert cli_mod.MAX_N >= 20000 and cli_mod.MAX_TABLE_ROWS >= 2520


def test_decimal_digits_match_str():
    # Powers of 10 and their neighbours are where a digit count can slip.
    assert _decimal_digits(0) == 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # 3.11+
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for j in range(0, 5001):
            p = 10**j
            for v in (p - 1, p, p + 1):
                if v:
                    assert _decimal_digits(v) == len(str(v)), j
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_bench_prints_big_values_as_a_digit_count(capsys):
    code, out, _ = run_cli(capsys, "bench", "f", "--n", "200", "--reps", "1")
    assert code == 0
    assert f"value=<{len(str(relprime_subsets(200)))} decimal digits>" in out


def test_verify_formula_bound(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    limit = cli_mod.MAX_FORMULA_N
    seen = []

    class Reached(Exception):
        pass

    def stub(**kwargs):
        seen.append(kwargs["n_max_formula"])
        raise Reached

    monkeypatch.setattr(cli_mod, "run_verification", stub)
    with pytest.raises(Reached):  # the limit itself is admitted
        main(["verify", "--n-max-formula", str(limit)])
    assert seen == [limit]
    start = time.perf_counter()
    for past in (limit + 1, 100_000):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--n-max-formula", str(past)])
        assert err.value.code == 2
        assert f"bound {limit}" in capsys.readouterr().err
    assert seen == [limit]  # no check ran past the limit
    assert time.perf_counter() - start < 5.0
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"at most {limit}" in capsys.readouterr().out


def test_verify_formula_bound_runs_the_battery_at_the_limit(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_FORMULA_N", 40)
    code, out, _ = run_cli(capsys, "verify", "--n-max-enum", "4", "--n-max-formula", "40")
    assert code == 0 and "n <= 40" in out
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n-max-enum", "4", "--n-max-formula", "41"])
    assert err.value.code == 2


def test_verify_k_set_bound(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod

    limit = cli_mod.MAX_K_VALUES
    seen = []

    class Reached(Exception):
        pass

    def stub(**kwargs):
        seen.append(kwargs["k_set"])
        raise Reached

    monkeypatch.setattr(cli_mod, "run_verification", stub)
    at_limit = ",".join(str(k) for k in range(1, limit + 1))
    with pytest.raises(Reached):  # the limit itself is admitted
        main(["verify", "--k-set", at_limit])
    assert seen == [tuple(range(1, limit + 1))]

    def failing(**kwargs):
        raise AssertionError("no check may run past the k-set bound")

    monkeypatch.setattr(cli_mod, "run_verification", failing)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--k-set", at_limit + f",{limit + 1}"])
    assert err.value.code == 2
    assert f"bound {limit}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"at most {limit} distinct" in capsys.readouterr().out


def test_verify_k_set_is_deduplicated(capsys, monkeypatch):
    import menon_subsets.cli as cli_mod
    from menon_subsets.verification import VerificationReport

    seen = []
    monkeypatch.setattr(cli_mod, "run_verification",
                        lambda **kw: seen.append(kw["k_set"]) or VerificationReport())
    assert main(["verify", "--k-set", "2,2,2"]) == 0
    assert main(["verify", "--k-set", "3,1,3,1"]) == 0
    limit = cli_mod.MAX_K_VALUES
    repeated = ",".join(["1"] * (limit + 5))
    assert main(["verify", "--k-set", repeated]) == 0  # distinct values count
    assert seen == [(2,), (3, 1), (1,)]
