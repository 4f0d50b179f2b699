import json

import pytest

from menon_subsets import build_sieve
from menon_subsets.verification import run_verification


def test_scaled_down_run_passes():
    report = run_verification(n_max_enum=8, n_max_formula=60, k_set=(1, 2))
    assert report.overall
    assert all(c.passed for c in report.checks)
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert len(names) >= 10


def test_report_serializes_to_json():
    report = run_verification(n_max_enum=4, n_max_formula=30, k_set=(1, 2))
    payload = json.dumps(report.to_dict())
    parsed = json.loads(payload)
    assert parsed["overall"] is True
    assert {c["name"] for c in parsed["checks"]} == {c.name for c in report.checks}


def test_render_mentions_every_check():
    report = run_verification(n_max_enum=4, n_max_formula=30, k_set=(1,))
    text = report.render()
    for check in report.checks:
        assert check.name in text
    assert text.endswith("overall: PASS")


def test_detects_mobius_corruption():
    bad = build_sieve(300)
    bad.mu[10] = -1  # true value is +1
    report = run_verification(n_max_enum=10, n_max_formula=60, sieve=bad)
    assert not report.overall
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert any(c.mismatch is not None or c.error is not None for c in failing)
    assert "FAIL" in report.render()


def test_detects_totient_corruption():
    bad = build_sieve(300)
    bad.phi[7] = 5  # true value is 6
    report = run_verification(n_max_enum=8, n_max_formula=40, sieve=bad)
    assert not report.overall


def test_rejects_enum_bound_above_limit():
    with pytest.raises(ValueError):
        run_verification(n_max_enum=30)


def test_rejects_undersized_sieve():
    with pytest.raises(ValueError):
        run_verification(n_max_enum=4, n_max_formula=30, sieve=build_sieve(100))


def test_every_check_reports_cases_and_seconds():
    report = run_verification(n_max_enum=4, n_max_formula=30, k_set=(1, 2))
    text = report.render()
    for check in report.checks:
        assert check.status == "PASS"
        assert check.cases > 0
        assert check.seconds >= 0
        assert f"({check.cases} cases, " in text
    for row in report.to_dict()["checks"]:
        assert row["status"] == "PASS"
        assert row["cases"] > 0 and "seconds" in row


def test_defaults_run_every_check():
    report = run_verification()
    assert report.overall
    assert all(c.status == "PASS" and c.cases > 0 for c in report.checks)


def test_empty_ranges_are_skipped_not_passed():
    report = run_verification(n_max_enum=0, n_max_formula=1)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["enumeration-counts"] == "SKIP"
    assert statuses["pair-count-totient-sum"] == "SKIP"
    assert statuses["known-values"] == "PASS"
    assert "FAIL" not in statuses.values()
    assert not report.overall
    assert report.render().endswith("overall: FAIL")
    assert report.to_dict()["overall"] is False


def test_skipped_check_is_not_a_pass():
    from menon_subsets.verification import CheckResult, VerificationReport

    skipped = CheckResult("probe", "scope", passed=True, cases=0)
    assert skipped.status == "SKIP"
    assert not VerificationReport([skipped]).overall
    assert VerificationReport([CheckResult("probe", "scope", True, cases=3)]).overall


def test_battery_has_seventeen_checks_and_checks_the_core_against_the_oracle():
    report = run_verification(n_max_enum=4, n_max_formula=30, k_set=(2,))
    assert len(report.checks) == 17
    check = next(c for c in report.checks if c.name == "core-vs-mobius-sum")
    assert check.status == "PASS" and check.cases == 30
    assert "k in {None, 2}" in check.scope


def test_corruption_reaches_the_battery_through_the_oracle_side():
    bad = build_sieve(300)
    bad.mu[10] = -1
    failing = {c.name for c in run_verification(4, 60, sieve=bad).checks if not c.passed}
    assert "core-vs-mobius-sum" in failing
    bad = build_sieve(300)
    bad.phi[7] = 5
    failing = {c.name for c in run_verification(4, 60, sieve=bad).checks if not c.passed}
    assert failing == {"pair-count-totient-sum"}


def test_term_count_law_reads_mu_from_the_sieve():
    report = run_verification(n_max_enum=10, n_max_formula=30, k_set=(2,))
    check = next(c for c in report.checks if c.name == "term-count-law")
    assert check.status == "PASS" and check.cases == 10
    assert "Phi_k(n)" in check.scope
    bad = build_sieve(300)
    bad.mu[10] = -1  # true value is +1; 10 divides only n = 10 below 11
    report = run_verification(n_max_enum=10, n_max_formula=30, k_set=(2,), sieve=bad)
    check = next(c for c in report.checks if c.name == "term-count-law")
    assert check.status == "FAIL"
    assert (check.mismatch.n, check.mismatch.k) == (10, None)


def test_battery_walks_each_enumerated_n_and_k_once(subset_walks):
    from math import comb

    assert run_verification(n_max_enum=10, n_max_formula=30, k_set=(1, 2, 3)).overall
    # Every (n, k) the battery enumerates: k None and k in {1, 2, 3, n}.
    walked = [(n, k) for n, k, _ in subset_walks]
    assert sorted(walked, key=str) == sorted(
        ((n, k) for n in range(1, 11) for k in (None, *{1, 2, 3, n})), key=str)
    subsets = sum((1 << n) - 1 + sum(comb(n, k) for k in {1, 2, 3, n}) for n in range(1, 11))
    assert sum(count for *_, count in subset_walks) == subsets


def test_each_battery_run_walks_again(subset_walks):
    run_verification(n_max_enum=8, n_max_formula=20, k_set=(2,))
    once = list(subset_walks)
    assert once
    run_verification(n_max_enum=8, n_max_formula=20, k_set=(2,))
    assert subset_walks == once * 2  # no memo outlives a run
