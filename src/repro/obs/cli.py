"""``python -m repro metrics`` — dump, validate and diff run artifacts.

    python -m repro metrics smoke --out artifacts/smoke.json
    python -m repro metrics validate artifacts/*.json
    python -m repro metrics diff run_a.json run_b.json

``smoke`` runs one small accelerator experiment and emits its
:class:`repro.obs.report.RunReport`, whose ``profile`` section carries the
run's simulator event count — the CI metrics job runs exactly this and
then ``validate``s the output, which fails (exit 1) on schema breakage
or any ``nan`` latency/throughput field. ``diff`` compares two
artifacts field by field (exit 1 when they differ, 2 when either one
is missing, not JSON or not a RunReport), which is how
byte-level determinism regressions and cross-version drifts are
inspected. An experiment's aggregate artifact comes from
``python -m repro <experiment> --report-dir DIR``.

Everything heavier than the artifact helpers is imported lazily inside
the handlers, so ``metrics validate``/``diff`` stay instant.
"""

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.obs.report import RunReport, diff_reports, validate_report

#: Smoke-run shape: small enough for CI, big enough to exercise the
#: dispatcher, both engines, the arbiter and the span tracer.
SMOKE_LOAD = 0.5
SMOKE_REQUESTS = 200
SMOKE_SEED = 1


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target",
        help="'smoke', 'validate' or 'diff'",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="artifact path(s) for validate/diff",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the artifact JSON here instead of stdout",
    )
    parser.add_argument(
        "--rel-tolerance", type=float, default=0.0,
        help="relative tolerance for diff (default: exact)",
    )


def _emit(report: RunReport, out: Optional[str]) -> int:
    """Validate and write/print one artifact; exit status 0/1."""
    text = report.to_json()
    problems = validate_report(json.loads(text))
    if out:
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    for problem in problems:
        print(f"invalid artifact: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _smoke(out: Optional[str]) -> int:
    from repro.core.equinox import EquinoxAccelerator
    from repro.dse.table1 import equinox_configuration
    from repro.models.lstm import deepbench_lstm

    model = deepbench_lstm()
    accelerator = EquinoxAccelerator(
        equinox_configuration("500us"), model, training_model=model
    )
    sim_report = accelerator.run(
        load=SMOKE_LOAD, requests=SMOKE_REQUESTS, seed=SMOKE_SEED
    )
    report = accelerator.run_report(sim_report, "smoke")
    report.profile = {"events": float(sim_report.events_processed)}
    return _emit(report, out)


def _validate(paths: List[str]) -> int:
    if not paths:
        print("metrics validate needs at least one path", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"{path}: unreadable ({error})", file=sys.stderr)
            status = 1
            continue
        problems = validate_report(data)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return status


def _diff(paths: List[str], rel_tolerance: float) -> int:
    if len(paths) != 2:
        print("metrics diff needs exactly two paths", file=sys.stderr)
        return 2
    reports = []
    for path in paths:
        try:
            with open(path) as handle:
                reports.append(RunReport.from_dict(json.load(handle)))
        except (OSError, ValueError) as error:
            # Exit 1 means "the artifacts differ"; an input that cannot
            # be compared at all is a usage error.
            print(f"{path}: unreadable ({error})", file=sys.stderr)
            return 2
    delta = diff_reports(reports[0], reports[1], rel_tolerance=rel_tolerance)
    if not delta:
        print("identical")
        return 0
    width = max(len(path) for path in delta)
    for path in sorted(delta):
        a, b = delta[path]
        print(f"{path:<{width}}  {a!r:>24} -> {b!r}")
    return 1


def run(args: argparse.Namespace) -> int:
    if args.target == "smoke":
        return _smoke(args.out)
    if args.target == "validate":
        return _validate(list(args.paths))
    if args.target == "diff":
        return _diff(list(args.paths), args.rel_tolerance)
    print(
        f"unknown metrics target {args.target!r}; expected 'smoke', "
        "'validate' or 'diff' (an experiment writes its RunReport with "
        "'python -m repro <experiment> --report-dir DIR')",
        file=sys.stderr,
    )
    return 2
