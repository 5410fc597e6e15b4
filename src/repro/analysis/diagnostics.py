"""Shared diagnostics core for the static-analysis passes.

Every verifier and lint rule reports :class:`Diagnostic` records — a
severity, a stable rule id (``EQX...``), a human-readable message and a
location (a source file/line for codebase lints, a program/step/job
path for the program verifier). The renderers turn a batch of
diagnostics into the text report the CLI prints or the JSON document CI
consumes; severity gating maps a batch onto a process exit code.
"""

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: Schema tag stamped into every JSON report so CI consumers can detect
#: incompatible format changes.
DIAGNOSTICS_SCHEMA = "repro.analysis/diagnostics/v1"


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so gating can compare."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; "
                f"expected one of {[s.name.lower() for s in cls]}"
            ) from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where a diagnostic anchors.

    Codebase lints fill ``file``/``line``; the program verifier fills
    ``obj`` with a path like ``lstm_train/step[3]/job[0]`` or
    ``image:training``.
    """

    file: Optional[str] = None
    line: Optional[int] = None
    obj: Optional[str] = None

    def render(self) -> str:
        if self.file is not None:
            if self.line is not None:
                return f"{self.file}:{self.line}"
            return self.file
        if self.obj is not None:
            return self.obj
        return "<unknown>"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis rule."""

    rule_id: str
    severity: Severity
    message: str
    location: Location = field(default_factory=Location)

    def render(self) -> str:
        return (
            f"{self.severity}: {self.rule_id} at {self.location.render()}: "
            f"{self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "file": self.location.file,
            "line": self.location.line,
            "object": self.location.obj,
        }


# ----------------------------------------------------------------------
# Batch helpers
# ----------------------------------------------------------------------


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    counts = {str(severity): 0 for severity in Severity}
    for diagnostic in diagnostics:
        counts[str(diagnostic.severity)] += 1
    return counts


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """The highest severity present, or None for a clean batch."""
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None


def errors(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diagnostics if d.severity >= Severity.ERROR]


def exit_code(
    diagnostics: Iterable[Diagnostic], fail_on: Severity = Severity.ERROR
) -> int:
    """Severity gate: non-zero when any finding reaches ``fail_on``."""
    worst = max_severity(diagnostics)
    return 1 if worst is not None and worst >= fail_on else 0


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """The human-readable report: one line per finding plus a summary."""
    lines = [d.render() for d in diagnostics]
    counts = count_by_severity(diagnostics)
    summary = ", ".join(
        f"{counts[str(s)]} {s}{'s' if counts[str(s)] != 1 else ''}"
        for s in sorted(Severity, reverse=True)
    )
    lines.append(f"analysis: {summary}")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    """The machine-readable report CI consumes.

    Canonical JSON — sorted keys, compact separators, no NaN/Infinity —
    so identical findings render byte-identically everywhere and the
    artifact can be checksummed. (Implemented locally rather than via
    :mod:`repro.exec.canonical` to keep the diagnostics core free of
    exec-layer imports.)
    """
    document: Dict[str, object] = {
        "schema": DIAGNOSTICS_SCHEMA,
        "diagnostics": [d.to_dict() for d in diagnostics],
        "counts": count_by_severity(diagnostics),
    }
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
