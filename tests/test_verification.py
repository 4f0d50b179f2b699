import json

import pytest

from menon_subsets import build_sieve
from menon_subsets.verification import Mismatch, run_verification


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


def test_mobius_corruption_pins_the_first_mismatch_of_each_failing_check():
    bad = build_sieve(300)
    bad.mu[10] = -1  # true value is +1
    report = run_verification(n_max_enum=10, n_max_formula=60, sieve=bad)
    failing = {c.name: (c.cases, c.mismatch, c.error) for c in report.checks if not c.passed}
    assert failing == {
        "three-way-gcd-sum": (10, Mismatch(10, None, "enum:9844",
                                           "gcd-class:9824, divisor-sum:9844"), None),
        "three-way-gcd-sum-k": (34, Mismatch(10, 1, "enum:16", "gcd-class:-4, divisor-sum:16"),
                                None),
        "gcd-class-vs-divisor-sum": (10, Mismatch(10, None, "gcd-class:9824",
                                                  "column:9844, divisor-sum:9844"), None),
        "core-vs-mobius-sum": (10, Mismatch(10, None, "981", "983"), None),
        "prime-power-consistency": (4, Mismatch(16, None, "gcd-class:1043948, prime-power "
                                                "identity:1043950", "divisor-sum:1043980"), None),
        "term-count-law": (10, Mismatch(10, None, "988", "990"), None),
    }


def test_detects_totient_corruption():
    bad = build_sieve(300)
    bad.phi[7] = 5  # true value is 6
    report = run_verification(n_max_enum=8, n_max_formula=40, sieve=bad)
    assert not report.overall


def test_a_case_that_raises_is_not_counted():
    bad = build_sieve(300)
    bad.phi[7] = 5  # the prime-power identity refuses 7 as not prime
    report = run_verification(n_max_enum=8, n_max_formula=40, sieve=bad)
    check = next(c for c in report.checks if c.name == "prime-power-consistency")
    assert check.status == "FAIL" and check.mismatch is None
    assert check.error == "ValueError: 7 is not prime"
    # 2^1..2^8, 3^1..3^5 and 5^1..5^3 finish; the case at 7 raises and is not counted.
    assert check.cases == 16


def test_rejects_enum_bound_above_limit():
    with pytest.raises(ValueError):
        run_verification(n_max_enum=30)


def test_rejects_undersized_sieve():
    with pytest.raises(ValueError):
        run_verification(n_max_enum=4, n_max_formula=30, sieve=build_sieve(100))


@pytest.mark.parametrize("kwargs", [
    dict(n_max_enum=-3, n_max_formula=-5, k_set=(1,)), dict(n_max_enum=-1),
    dict(n_max_formula=-1), dict(k_set=()), dict(k_set=(0,)), dict(k_set=(1, -2)),
    dict(k_set=(2.0,)), dict(k_set=("2",)), dict(k_set=(True,)), dict(k_set=(1, None))])
def test_rejects_bad_bounds_and_k_before_any_check(monkeypatch, kwargs):
    # A bad argument raises up front: no sieve is built and no check starts its clock,
    # where a negative bound used to run the battery and report errors per check.
    import menon_subsets.verification as verification_mod

    ran = []
    for name in ("build_sieve", "perf_counter", "relprime_subsets", "menon_sum"):
        monkeypatch.setattr(verification_mod, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ValueError):
        run_verification(**kwargs)
    assert ran == []


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


def test_battery_has_sixteen_checks_and_checks_the_core_against_the_oracle():
    report = run_verification(n_max_enum=4, n_max_formula=30, k_set=(2,))
    assert len(report.checks) == 16
    check = next(c for c in report.checks if c.name == "core-vs-mobius-sum")
    assert check.status == "PASS" and check.cases == 30
    assert "k in {None, 2}" in check.scope


def test_corruption_reaches_the_battery_through_the_oracle_side():
    bad = build_sieve(300)
    bad.mu[10] = -1
    failing = {c.name for c in run_verification(4, 60, sieve=bad).checks if not c.passed}
    assert "core-vs-mobius-sum" in failing
    bad = build_sieve(300)
    bad.phi[7] = 5  # the prime-power identity reads phi, and 7's primality, here too
    failing = {c.name for c in run_verification(4, 60, sieve=bad).checks if not c.passed}
    assert failing == {"pair-count-totient-sum", "prime-power-consistency"}


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


def test_default_battery_runs_the_cold_divisor_sum_at_every_formula_n(monkeypatch):
    # gcd-class-vs-divisor-sum keeps the per-n route covered at formula scale: the
    # battery calls menon_sum(n), cold and with no cache, at k = None for every
    # n <= n_max_formula, beside the column and the gcd-class oracle.  The battery
    # looks each function up when it calls it: the oracles' recorders see every call too.
    import menon_subsets.verification as verification_mod

    calls = {"menon_sum": [], "gcd_class_menon_sum": [], "enumerate_menon_sum": []}

    def recording(name):
        original = getattr(verification_mod, name)

        def recorder(*args, **kwargs):
            calls[name].append((args, kwargs))
            return original(*args, **kwargs)

        return recorder

    for name in calls:
        monkeypatch.setattr(verification_mod, name, recording(name))
    report = run_verification()
    assert report.overall
    assert all(not kwargs and len(args) <= 2 for args, kwargs in calls["menon_sum"])
    cold = {args[0] for args, _ in calls["menon_sum"] if len(args) == 1 or args[1] is None}
    assert cold >= set(range(1, 301))
    assert {args[0] for args, _ in calls["gcd_class_menon_sum"]} >= set(range(1, 301))
    enumerated = {(args[0], args[1]) for args, _ in calls["enumerate_menon_sum"]}
    assert enumerated == {(n, k) for n in range(1, 17) for k in (None, 1, 2, 3, n)}
    check = next(c for c in report.checks if c.name == "gcd-class-vs-divisor-sum")
    assert check.cases == 300 and "gcd-class = column = cold divisor sum" in check.scope
