"""Verification reports: one entry per residual or sub-report, failures
named, and the digests of every entry that the verify output flattens."""

import hashlib
from fractions import Fraction

import pytest

import bi_lab.suites as suites
from bi_lab.linop import LinOp, lincomb
from bi_lab.racah import RacahParams, central_extension_check, tensor_oracle
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


def record_log(monkeypatch) -> list[str]:
    """The log, one line "title, check, index!r, ok" joined by tabs per
    ``VerificationReport.record`` call from now on."""
    log, record = [], VerificationReport.record

    def logged(self, check, index, ok, detail=""):
        log.append(f"{self.title}\t{check}\t{index!r}\t{bool(ok)}")
        record(self, check, index, ok, detail)
    monkeypatch.setattr(VerificationReport, "record", logged)
    return log


def test_of_keeps_title_and_order_with_one_record_per_entry(monkeypatch):
    log = record_log(monkeypatch)
    report = VerificationReport.of("t", [("b", 1, 0), ("a", (0, 2), 0), ("b", 0, 3)])
    assert report.title == "t" and report.notes == []
    assert [e.to_json() for e in report.entries] == [
        {"check": "b", "index": 1, "pass": True, "detail": ""},
        {"check": "a", "index": (0, 2), "pass": True, "detail": ""},
        {"check": "b", "index": 0, "pass": False, "detail": ""}]
    assert log == ["t\tb\t1\tTrue", "t\ta\t(0, 2)\tTrue", "t\tb\t0\tFalse"]


EYE = LinOp.identity(2)


@pytest.mark.parametrize("residual, ok", [
    (lincomb((1, EYE), (-1, EYE)), True), (EYE, False),
    ({}, True), ({1: -2}, False), (0, True), (-7, False),
    (Fraction(0), True), (Fraction(1, 3), False), (False, True), (True, False),
], ids=["zero LinOp", "nonzero LinOp", "zero column", "nonzero column", "zero int",
        "nonzero int", "zero Fraction", "nonzero Fraction", "False", "True"])
def test_of_entry_holds_exactly_when_the_residual_is_zero(residual, ok):
    (entry,) = VerificationReport.of("t", [("c", 0, residual)]).entries
    assert entry.ok is ok


def test_of_nothing_fails_with_no_checks():
    report = VerificationReport.of("empty", iter(()))
    assert (report.checked, report.passed) == (0, False)


def test_of_propagates_an_error_of_the_residuals():
    """As ``k1_spectrum_check`` relies on: its strict zip raises mid-report."""
    residuals = (("c", k, 0) for k, _ in zip(range(2), range(3), strict=True))
    with pytest.raises(ValueError):
        VerificationReport.of("t", residuals)


# The sha256 prefix and count of the log of every entry recorded, the nested
# ones that ``verify`` flattens into one per suite included: for
# ``run_scope("all")`` at the default seed, and for ``tensor_oracle`` and
# ``central_extension_check`` at the two tuples of the tensor-product CI step.
# A change that adds or renames checks re-takes these digests.
def run_tensor_step():
    for mus, N in ((("1/4", "1/3", "1/2"), 4), (("-1/3", "2/5", "-3/7"), 6)):
        RP = RacahParams.make(*mus, N)
        tensor_oracle(RP, N)
        central_extension_check(RP, N)


@pytest.mark.parametrize("run, digest, records", [
    (lambda: suites.run_scope("all"), "bf8c1582b46a09f0", 6645),
    (run_tensor_step, "48315e294e345ae2", 64),
], ids=["verify-all", "tensor-step"])
def test_nested_entries_match_their_digest(monkeypatch, run, digest, records):
    log = record_log(monkeypatch)
    run()
    assert len(log) == records
    assert hashlib.sha256("\n".join(log).encode()).hexdigest()[:16] == digest
