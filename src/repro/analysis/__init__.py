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
