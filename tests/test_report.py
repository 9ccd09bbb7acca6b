"""Verification reports: one entry per sub-report, failures named."""

import pytest

import bi_lab.suites as suites
from bi_lab.report import VerificationReport


def report_of(*entries):
    report = VerificationReport("sub")
    for check, index, ok, detail in entries:
        report.record(check, index, ok, detail)
    return report


def test_record_report_passing_sub_has_no_detail():
    parent = VerificationReport("parent")
    parent.record_report("sub entry", 3, report_of(("a", 0, True, "")))
    assert [e.to_json() for e in parent.entries] == [
        {"check": "sub entry", "index": 3, "pass": True, "detail": ""}]


def test_record_report_failing_sub_names_first_failure():
    sub = report_of(("a", 0, True, ""), ("b", (1, 2), False, "residual 1/3"),
                    ("c", 5, False, ""))
    assert sub.summary() == ("sub: FAIL (3 checks, 2 failed); "
                             "first failed: b @ (1, 2): residual 1/3")
    parent = VerificationReport("parent")
    parent.record_report("sub entry", "-", sub)
    (entry,) = parent.entries
    assert (entry.check, entry.index, entry.ok) == ("sub entry", "-", False)
    assert entry.detail == sub.summary()
    assert parent.summary().endswith("first failed: sub entry @ -: " + sub.summary())


def test_empty_sub_fails_with_its_counts():
    parent = VerificationReport("parent")
    parent.record_report("sub entry", 0, VerificationReport("empty"))
    assert parent.failures[0].detail == "empty: FAIL (0 checks, 0 failed)"


def forced_failure(monkeypatch, name):
    """Mutant: the sub-report that suites.<name> returns gains one failed
    entry "forced check" at index 0."""
    orig = getattr(suites, name)

    def failing(*args):
        sub = orig(*args)
        sub.record("forced check", 0, False)
        return sub
    monkeypatch.setattr(suites, name, failing)


@pytest.mark.parametrize("name, run, check", [
    ("dunkl_commutator_check", lambda: suites.suite_sl1(seed=1, tuples=1),
     "Dunkl commutator"),
    ("identification_check", lambda: suites.suite_racah(seed=1, tuples=1),
     "identifications"),
    ("pauli_layer_check",
     lambda: suites.suite_dirac(seed=1, tuples=1, maxdeg=1), "Pauli layer"),
], ids=["sl1", "racah", "dirac"])
def test_failed_sub_report_detail_names_first_failure(monkeypatch, name, run, check):
    forced_failure(monkeypatch, name)
    report = run()
    (entry,) = report.failures
    assert entry.check.startswith(check)
    assert "first failed: forced check @ 0" in entry.detail
