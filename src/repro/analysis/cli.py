"""The ``python -m repro analyze`` subcommand.

    python -m repro analyze                       # full suite, text report
    python -m repro analyze --format json         # CI-consumable JSON
    python -m repro analyze --fail-on warning     # stricter gate
    python -m repro analyze --fixture tests/analysis/fixtures/missing_barrier.py
    python -m repro analyze whole-program src/repro   # EQX4xx pass

Default scope is both passes: the codebase lint over the installed
``repro`` package and the program verifier over every builtin workload
(the models the examples and the benchmark suite install). With
``--fixture``, only the named fixture modules are verified — the
regression corpus uses this to assert each checked-in broken program
still trips its rule.

``whole-program`` mode instead builds the interprocedural call graph
over a source tree (cacheable with ``--cache-dir``, keyed by the tree
digest), propagates the effect lattice, and judges the EQX4xx rules;
``--min-jobs`` / ``--min-kernels`` turn the coverage summary into a
hard gate so CI notices when the registries silently shrink.

Exit status: 0 when no finding reaches the ``--fail-on`` severity
(default ``error``), 1 otherwise.
"""

import argparse
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    exit_code,
    render_json,
    render_text,
)
from repro.analysis.program_verifier import DEFAULT_WASTE_THRESHOLD, verify
from repro.analysis.rules import UNREGISTERED_ENTRY_POINT, diagnostic
from repro.analysis.suite import (
    iter_fixture_artifacts,
    lint_repository,
    repo_source_root,
    verify_builtin_programs,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the analyze options (shared with ``repro.__main__``)."""
    parser.add_argument(
        "mode", nargs="?", choices=("suite", "whole-program"),
        default="suite",
        help="analysis to run: the default rule suite, or the "
        "interprocedural whole-program pass (EQX4xx)",
    )
    parser.add_argument(
        "root", nargs="?", type=Path, default=None,
        help="source tree for whole-program mode (default: the "
        "installed repro package)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="whole-program mode: directory for the call-graph artifact "
        "(keyed by the tree digest; reused when the tree is unchanged)",
    )
    parser.add_argument(
        "--min-jobs", type=int, default=0,
        help="whole-program mode: fail unless at least this many "
        "registered job functions are covered by the call graph",
    )
    parser.add_argument(
        "--min-kernels", type=int, default=0,
        help="whole-program mode: fail unless at least this many "
        "kernel pairs are covered by the call graph",
    )
    parser.add_argument(
        "--min-checkpoint-roots", type=int, default=0,
        help="whole-program mode: fail unless at least this many "
        "checkpoint roots resolve to classes in the call graph "
        "(the EQX406 snapshot rule's coverage floor)",
    )
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
    """Run the selected passes and return every diagnostic."""
    diags: List[Diagnostic] = []
    if args.fixture:
        for fixture in args.fixture:
            for config, artifact in iter_fixture_artifacts(fixture):
                diags.extend(verify(
                    artifact, config, waste_threshold=args.waste_threshold
                ))
        return diags
    if not args.skip_codebase:
        diags.extend(lint_repository(args.path))
    if not args.skip_programs:
        diags.extend(
            verify_builtin_programs(waste_threshold=args.waste_threshold)
        )
    return diags


def collect_whole_program(
    args: argparse.Namespace,
) -> Tuple[List[Diagnostic], dict]:
    """Run the interprocedural pass; returns (diagnostics, coverage).

    Imported lazily so the default suite never pays for the
    whole-program machinery.
    """
    from repro.analysis.whole_program import analyze_tree

    root = args.root or args.path or repo_source_root()
    report = analyze_tree(root, cache_dir=args.cache_dir)
    diags = list(report.diagnostics)
    coverage = report.coverage()
    for kind, covered, wanted in (
        ("job function", coverage["jobs_covered"], args.min_jobs),
        ("kernel pair", coverage["kernels_covered"], args.min_kernels),
        (
            "checkpoint root",
            coverage["checkpoint_roots_covered"],
            args.min_checkpoint_roots,
        ),
    ):
        if covered < wanted:
            diags.append(diagnostic(
                UNREGISTERED_ENTRY_POINT,
                f"coverage gate: {covered} {kind}(s) covered by the "
                f"call graph, expected at least {wanted} — a registry "
                "shrank or its targets stopped resolving",
                file=str(root),
            ))
    return diags, coverage


def run(args: argparse.Namespace) -> int:
    """Execute the subcommand; returns the process exit code."""
    coverage = None
    if args.mode == "whole-program":
        diags, coverage = collect_whole_program(args)
    else:
        diags = collect(args)
    ignored = {part.strip() for part in args.ignore.split(",") if part.strip()}
    if ignored:
        diags = [d for d in diags if d.rule_id not in ignored]
    if args.format == "json":
        extra = {"coverage": coverage} if coverage is not None else None
        print(render_json(diags, extra=extra))
    else:
        print(render_text(diags))
        if coverage is not None:
            from repro.analysis.whole_program import coverage_lines

            for line in coverage_lines(coverage):
                print(line)
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
    import sys

    sys.exit(main())
