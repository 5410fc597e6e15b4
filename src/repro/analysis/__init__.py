"""Static analysis for compiled Equinox programs and the codebase.

Two coordinated passes over one diagnostics core:

* the **program verifier** (:mod:`repro.analysis.program_verifier`)
  statically checks compiled job streams and instruction images against
  the hardware's static budgets and hazard rules — and gates the
  service-install path in :mod:`repro.core.dispatcher`;
* the **codebase linter** (:mod:`repro.analysis.codebase_linter`) runs
  AST rules (dtype leaks, determinism, exception hygiene) over
  ``src/repro``.

``python -m repro analyze`` drives both; see ``DESIGN.md`` for the rule
catalog.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.codebase_linter import (
        DEFAULT_RULES,
        LintRule,
        lint_file,
        lint_source,
        lint_tree,
    )
    from repro.analysis.diagnostics import (
        Diagnostic,
        Location,
        Severity,
        count_by_severity,
        errors,
        exit_code,
        max_severity,
        render_json,
        render_text,
    )
    from repro.analysis.program_verifier import (
        DEFAULT_WASTE_THRESHOLD,
        ProgramVerificationError,
        raise_on_errors,
        verify,
        verify_image,
        verify_program,
    )
    from repro.analysis.rules import Rule, catalog, is_known_rule, rule

__all__ = [
    "Diagnostic",
    "Location",
    "Severity",
    "count_by_severity",
    "errors",
    "exit_code",
    "max_severity",
    "render_json",
    "render_text",
    "Rule",
    "catalog",
    "is_known_rule",
    "rule",
    "DEFAULT_WASTE_THRESHOLD",
    "ProgramVerificationError",
    "raise_on_errors",
    "verify",
    "verify_image",
    "verify_program",
    "DEFAULT_RULES",
    "LintRule",
    "lint_file",
    "lint_source",
    "lint_tree",
]

__getattr__ = lazy_exports(__name__, {
    "DEFAULT_RULES": "repro.analysis.codebase_linter",
    "LintRule": "repro.analysis.codebase_linter",
    "lint_file": "repro.analysis.codebase_linter",
    "lint_source": "repro.analysis.codebase_linter",
    "lint_tree": "repro.analysis.codebase_linter",
    "Diagnostic": "repro.analysis.diagnostics",
    "Location": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "count_by_severity": "repro.analysis.diagnostics",
    "errors": "repro.analysis.diagnostics",
    "exit_code": "repro.analysis.diagnostics",
    "max_severity": "repro.analysis.diagnostics",
    "render_json": "repro.analysis.diagnostics",
    "render_text": "repro.analysis.diagnostics",
    "DEFAULT_WASTE_THRESHOLD": "repro.analysis.program_verifier",
    "ProgramVerificationError": "repro.analysis.program_verifier",
    "raise_on_errors": "repro.analysis.program_verifier",
    "verify": "repro.analysis.program_verifier",
    "verify_image": "repro.analysis.program_verifier",
    "verify_program": "repro.analysis.program_verifier",
    "Rule": "repro.analysis.rules",
    "catalog": "repro.analysis.rules",
    "is_known_rule": "repro.analysis.rules",
    "rule": "repro.analysis.rules",
})
