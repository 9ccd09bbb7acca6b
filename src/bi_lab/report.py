"""Verification report shared by all identity-checking modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class ReportEntry:
    check: str
    index: Any
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "index": self.index,
            "pass": self.ok,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    """Accumulates pass/fail entries for a family of identity checks."""

    title: str
    entries: list[ReportEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @classmethod
    def of(cls, title: str, residuals: Iterable[tuple]) -> "VerificationReport":
        """The report ``title`` with one entry (check, index) per (check, index,
        residual), in order, that holds when the residual is zero: ``not residual``."""
        report = cls(title)
        for check, index, residual in residuals:
            report.record(check, index, not residual)
        return report

    def record(self, check: str, index: Any, ok: bool, detail: str = "") -> None:
        self.entries.append(ReportEntry(check, index, bool(ok), detail))

    def record_report(self, check: str, index: Any,
                      sub: "VerificationReport") -> None:
        """One entry for the whole of ``sub``: it holds when ``sub`` passed,
        and a failed ``sub`` leaves its summary as the detail."""
        self.record(check, index, sub.passed, "" if sub.passed else sub.summary())

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        """True when at least one check ran and every check held."""
        return bool(self.entries) and all(e.ok for e in self.entries)

    @property
    def checked(self) -> int:
        return len(self.entries)

    @property
    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if not e.ok]

    def merge(self, other: "VerificationReport") -> None:
        self.entries.extend(other.entries)
        self.notes.extend(other.notes)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "checked": self.checked,
            "failed": len(self.failures),
            "pass": self.passed,
            "notes": self.notes,
            "entries": [e.to_json() for e in self.entries],
        }

    @property
    def verdict(self) -> str:
        """Title, pass/FAIL and the check and failure counts."""
        status, failed = "pass" if self.passed else "FAIL", len(self.failures)
        return f"{self.title}: {status} ({self.checked} checks, {failed} failed)"

    def summary(self) -> str:
        """The verdict; a failed report adds its first failure."""
        failures = self.failures
        text = self.verdict
        if failures:
            e = failures[0]
            text += f"; first failed: {e.check} @ {e.index}"
            text += f": {e.detail}" if e.detail else ""
        return text
