"""The ``python -m repro analyze`` subcommand.

    python -m repro analyze                       # full suite, text report
    python -m repro analyze --format json         # CI-consumable JSON
    python -m repro analyze --fail-on warning     # stricter gate
    python -m repro analyze --fixture tests/analysis/fixtures/missing_barrier.py

Default scope is both passes: the codebase lint over the installed
``repro`` package and the program verifier over every builtin workload
(the models the examples and the benchmark suite install). With
``--fixture``, only the named fixture modules are verified — the
regression corpus uses this to assert each checked-in broken program
still trips its rule.

Exit status: 0 when no finding reaches the ``--fail-on`` severity
(default ``error``), 1 otherwise, and 2 when ``--path`` or a
``--fixture`` does not exist, or the fixture loader rejects a
``--fixture`` (not a ``.py`` file, a syntax error, or no ``build()``
returning ``(config, artifacts)``).
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    exit_code,
    render_json,
    render_text,
)
from repro.analysis.program_verifier import DEFAULT_WASTE_THRESHOLD, verify
from repro.analysis.suite import (
    FixtureError,
    iter_fixture_artifacts,
    lint_repository,
    verify_builtin_programs,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the analyze options (shared with ``repro.__main__``)."""
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json for CI)",
    )
    parser.add_argument(
        "--fail-on", choices=("warning", "error"), default="error",
        help="lowest severity that fails the run (default: error)",
    )
    parser.add_argument(
        "--path", type=Path, default=None,
        help="root for the codebase lint pass (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--fixture", type=Path, nargs="+", default=None,
        help="verify these fixture modules instead of the default suite",
    )
    parser.add_argument(
        "--skip-programs", action="store_true",
        help="skip the program-verifier pass",
    )
    parser.add_argument(
        "--skip-codebase", action="store_true",
        help="skip the codebase lint pass",
    )
    parser.add_argument(
        "--ignore", default="",
        help="comma-separated rule ids to drop from the report",
    )
    parser.add_argument(
        "--waste-threshold", type=float, default=DEFAULT_WASTE_THRESHOLD,
        help="utilization floor for the tiling-waste lint (EQX106)",
    )


def collect(args: argparse.Namespace) -> List[Diagnostic]:
    """Run the default passes that no ``--skip-*`` flag turned off."""
    diags: List[Diagnostic] = []
    if not args.skip_codebase:
        diags.extend(lint_repository(args.path))
    if not args.skip_programs:
        diags.extend(
            verify_builtin_programs(waste_threshold=args.waste_threshold)
        )
    return diags


def run(args: argparse.Namespace) -> int:
    """Execute the subcommand; returns the process exit code."""
    named = [("--path", args.path)] + [
        ("--fixture", fixture) for fixture in args.fixture or ()
    ]
    for flag, path in named:
        if path is not None and not path.exists():
            print(f"analyze: {flag} {path} does not exist", file=sys.stderr)
            return 2
    if args.fixture:
        pairs: List[tuple] = []
        for fixture in args.fixture:
            try:
                pairs.extend(iter_fixture_artifacts(fixture))
            except FixtureError as err:
                print(
                    f"analyze: --fixture {fixture} is not a fixture ({err})",
                    file=sys.stderr,
                )
                return 2
        diags = [
            diag
            for config, artifact in pairs
            for diag in verify(
                artifact, config, waste_threshold=args.waste_threshold
            )
        ]
    else:
        diags = collect(args)
    ignored = {part.strip() for part in args.ignore.split(",") if part.strip()}
    if ignored:
        diags = [d for d in diags if d.rule_id not in ignored]
    if args.format == "json":
        print(render_json(diags))
    else:
        print(render_text(diags))
    return exit_code(diags, Severity.parse(args.fail_on))


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Static analysis for compiled Equinox programs and "
        "the repro codebase.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
