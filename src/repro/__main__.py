"""Command-line entry point: experiments and static analysis.

    python -m repro list
    python -m repro table1
    python -m repro fig9 --loads 0.2 0.6 0.95 --report-dir artifacts
    python -m repro fig7 --jobs 4 --cache-dir .exec-cache
    python -m repro all
    python -m repro analyze --format json --fail-on error
    python -m repro chaos --seed 7 --jobs auto --report-dir artifacts
    python -m repro serve --fleet 16 --tenants 3 --report-dir artifacts
    python -m repro sweep --jobs 8 --report-dir artifacts
    python -m repro metrics smoke --out artifacts/smoke.json
    python -m repro metrics validate artifacts/smoke.json

Experiment subcommands print the same text tables the benchmark harness
produces; ``all`` regenerates the full evaluation in one go. With
``--report-dir``, each experiment additionally writes its structured
JSON :class:`repro.obs.RunReport` artifact (schema-validated) into that
directory; with ``--jobs N``/``--cache-dir DIR``, experiments that fan
out over independent work units run them through the
:mod:`repro.exec` engine (bit-identical results for any worker count).
The ``analyze`` subcommand runs the static program verifier and
codebase lint (see :mod:`repro.analysis`); ``chaos`` runs the seeded
fault-injection scenario matrix (see :mod:`repro.faults.chaos`) and
prints the degradation table with its determinism self-check; ``serve``
runs the multi-tenant fleet-serving matrix (see :mod:`repro.serve`) and
emits the ``repro.serve/fleet-report/v1`` artifact; ``sweep`` is the
execution engine's own entry point (the design-space sweep, see
:mod:`repro.exec.cli`); ``metrics`` dumps, validates and diffs run
artifacts (see :mod:`repro.obs.cli`).
"""

import argparse
import json
import os
import sys
import time

from repro.eval import (
    fig2, fig6, fig7, fig8, fig9, fig10, fig11, spike,
    table1, table2, table3,
)

EXPERIMENTS = {
    "fig2": (fig2, "hbfp8 vs fp32 convergence"),
    "fig6": (fig6, "design-space clouds and Pareto frontiers"),
    "fig7": (fig7, "inference p99 latency vs throughput"),
    "fig8": (fig8, "MMU cycle breakdown"),
    "fig9": (fig9, "training throughput vs inference load"),
    "fig10": (fig10, "scheduling-policy comparison"),
    "fig11": (fig11, "adaptive batching"),
    "table1": (table1, "Pareto-optimal designs"),
    "table2": (table2, "workload sensitivity"),
    "table3": (table3, "area/power synthesis"),
    "spike": (spike, "spike response (extension)"),
}


def _write_artifact(report, directory: str) -> None:
    """Validate one RunReport and write it as ``<dir>/<name>.json``."""
    from repro.obs import validate_report

    text = report.to_json()
    problems = validate_report(json.loads(text))
    for problem in problems:
        print(f"invalid artifact {report.name}: {problem}", file=sys.stderr)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{report.name}.json")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"[artifact] {path}")


def _run_one(name: str, loads, report_dir=None, executor=None) -> None:
    module, _ = EXPERIMENTS[name]
    kwargs = {}
    if loads and hasattr(module.run, "__code__") and (
        "loads" in module.run.__code__.co_varnames
    ):
        kwargs["loads"] = tuple(loads)
    if executor is not None and hasattr(module.run, "__code__") and (
        "executor" in module.run.__code__.co_varnames
    ):
        kwargs["executor"] = executor
    started = time.time()
    if report_dir is not None:
        from repro.eval.runner import capture_run
        from repro.state.signals import ShutdownRequested

        with capture_run(name) as capture:
            _install_capture_checkpoint(executor, name, capture)
            try:
                result = module.run(**kwargs)
            except ShutdownRequested:
                # Final barrier on the way out: persist the capture and
                # flush what was measured so far as a *partial* artifact
                # — marked as such, never confused with a complete run.
                _save_capture_checkpoint(executor, name, capture)
                _write_artifact(
                    capture.build_report(config={"partial": True}),
                    report_dir,
                )
                raise
            finally:
                if executor is not None:
                    executor.set_checkpoint_cb(None)
        _write_artifact(capture.build_report(), report_dir)
    else:
        result = module.run(**kwargs)
    print(module.render(result))
    print(f"\n[{name} completed in {time.time() - started:.1f}s]\n")


def _install_capture_checkpoint(executor, name: str, capture) -> None:
    """Make the executor's periodic barrier snapshot this experiment's
    capture (lossless, mergeable state) under ``capture.<name>``."""
    if executor is None or executor.checkpoint_store is None:
        return
    executor.set_checkpoint_cb(
        lambda: _save_capture_checkpoint(executor, name, capture)
    )


def _save_capture_checkpoint(executor, name: str, capture) -> None:
    if executor is None or executor.checkpoint_store is None:
        return
    executor.checkpoint_store.save(
        f"capture.{name}", capture.state_dict(), step=capture.windows
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Equinox paper's tables and figures, "
        "or statically analyze programs and the codebase.",
    )
    from repro.exec import cli as exec_cli

    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in sorted(EXPERIMENTS) + ["all"]:
        description = (
            "run every experiment" if name == "all" else EXPERIMENTS[name][1]
        )
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument(
            "--loads", type=float, nargs="+", default=None,
            help="override the offered-load grid for load-sweep experiments",
        )
        sub.add_argument(
            "--report-dir", default=None,
            help="also write the structured RunReport artifact "
            "(<dir>/<experiment>.json)",
        )
        exec_cli.add_executor_arguments(sub)
    subparsers.add_parser("list", help="show experiment descriptions")

    analyze = subparsers.add_parser(
        "analyze",
        help="static program verifier + codebase lint",
        description="Run the static analysis passes (rule catalog in "
        "DESIGN.md): the program verifier over the builtin workload "
        "suite and the AST lint over the repro package.",
    )
    from repro.analysis import cli as analysis_cli

    analysis_cli.add_arguments(analyze)

    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault-injection scenario matrix",
        description="Run the chaos matrix: every fault scenario twice "
        "from its seed, printing degradation vs the fault-free baseline "
        "and a determinism self-check.",
    )
    chaos.add_argument(
        "--load", type=float, default=None,
        help="offered inference load for every scenario",
    )
    chaos.add_argument(
        "--requests", type=int, default=None,
        help="requests per single-accelerator scenario",
    )
    chaos.add_argument(
        "--seed", type=int, default=None,
        help="base seed for arrivals and fault plans",
    )
    chaos.add_argument(
        "--report-dir", default=None,
        help="write one RunReport artifact per scenario into this "
        "directory (<dir>/chaos.<scenario>.json)",
    )
    exec_cli.add_executor_arguments(chaos)

    serve = subparsers.add_parser(
        "serve",
        help="multi-tenant SLO-tiered fleet serving matrix",
        description="Run the tenant-mix serving matrix over a simulated "
        "chip fleet: sustained RPS and p50/p99/p999 per SLO class per "
        "fleet size, with chip-kill failover. Every scenario runs twice "
        "from its seed; the exit status is the determinism self-check.",
    )
    serve.add_argument(
        "--fleet", type=int, nargs="+", default=None, metavar="N",
        help="fleet sizes to sweep (strictly increasing)",
    )
    serve.add_argument(
        "--tenants", type=int, default=None,
        help="number of tenants (the default 3-class mix, cycled)",
    )
    serve.add_argument(
        "--requests-per-chip", type=int, default=None,
        help="measured requests per chip per scenario",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="base seed for arrivals, placement and kill times",
    )
    serve.add_argument(
        "--report-dir", default=None,
        help="write the fleet-report artifact as <dir>/serve.fleet.json",
    )
    serve.add_argument(
        "--validate-only", default=None, metavar="PATH",
        help="validate an existing fleet-report artifact and exit",
    )
    exec_cli.add_executor_arguments(serve)

    sweep = subparsers.add_parser(
        "sweep",
        help="design-space sweep through the execution engine",
        description="Run the Figure 6 design-space sweep, optionally "
        "fanned out over worker processes and replayed from the result "
        "cache; the sweep.json artifact is byte-identical for any "
        "--jobs value.",
    )
    exec_cli.add_sweep_arguments(sweep)

    metrics = subparsers.add_parser(
        "metrics",
        help="dump, validate and diff structured run artifacts",
        description="Emit the smoke-run or an experiment's RunReport "
        "artifact, validate artifacts against the schema (failing on "
        "any NaN latency/throughput), or diff two artifacts.",
    )
    from repro.obs import cli as metrics_cli

    metrics_cli.add_arguments(metrics)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    # SIGINT/SIGTERM unwind through ShutdownRequested at the next job
    # boundary (after its journal append): final checkpoint + partial
    # artifact flush happen on the way out, then the process exits with
    # the conventional 128+signum code and a named reason — never a
    # traceback.
    from repro.state.signals import GracefulShutdown, ShutdownRequested

    with GracefulShutdown() as shutdown:
        try:
            return _dispatch(args, shutdown)
        except ShutdownRequested as request:
            hint = (
                " — restart with --resume to continue"
                if getattr(args, "checkpoint_dir", None) is not None
                else ""
            )
            print(
                f"\n[shutdown] {request.signame} received: stopped at a "
                f"journal-consistent job boundary{hint}",
                file=sys.stderr,
            )
            return request.exit_code


def _dispatch(args, shutdown) -> int:
    from repro.exec import cli as exec_cli

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:8s} {EXPERIMENTS[name][1]}")
        return 0
    if args.command == "analyze":
        from repro.analysis import cli as analysis_cli

        return analysis_cli.run(args)
    if args.command == "sweep":
        return exec_cli.run_sweep(args, shutdown=shutdown)
    if args.command == "chaos":
        # Imported lazily: chaos pulls in the cluster layer, which the
        # experiment subcommands never need.
        from repro.faults import chaos as chaos_mod

        kwargs = {}
        if args.load is not None:
            kwargs["load"] = args.load
        if args.requests is not None:
            kwargs["requests"] = args.requests
        if args.seed is not None:
            kwargs["seed"] = args.seed
        executor = exec_cli.runner_from_args(args, shutdown=shutdown)
        if executor is not None:
            kwargs["executor"] = executor
        started = time.time()
        result = chaos_mod.run(**kwargs)
        print(chaos_mod.render(result))
        print(f"\n[chaos completed in {time.time() - started:.1f}s]\n")
        if args.report_dir is not None:
            for artifact in result["artifacts"].values():
                _write_artifact(artifact, args.report_dir)
        rows = result["rows"]
        return 0 if all(r.reproducible for r in rows) else 1
    if args.command == "serve":
        # Imported lazily, like chaos: the serving fabric pulls in the
        # dispatcher/fleet layers the experiment subcommands never need.
        from repro import serve as serve_mod

        if args.validate_only is not None:
            with open(args.validate_only) as handle:
                data = json.load(handle)
            problems = serve_mod.validate_fleet_report(data)
            for problem in problems:
                print(f"invalid fleet report: {problem}", file=sys.stderr)
            if not problems:
                print(f"[serve] {args.validate_only}: valid")
            return 0 if not problems else 1
        kwargs = {}
        if args.fleet is not None:
            kwargs["fleet_sizes"] = args.fleet
        if args.tenants is not None:
            kwargs["tenants"] = serve_mod.default_tenants(args.tenants)
        if args.requests_per_chip is not None:
            kwargs["requests_per_chip"] = args.requests_per_chip
        if args.seed is not None:
            kwargs["seed"] = args.seed
        executor = exec_cli.runner_from_args(args, shutdown=shutdown)
        if executor is not None:
            kwargs["executor"] = executor
        started = time.time()
        report = serve_mod.run(**kwargs)
        print(serve_mod.render(report))
        print(f"\n[serve completed in {time.time() - started:.1f}s]\n")
        if args.report_dir is not None:
            os.makedirs(args.report_dir, exist_ok=True)
            path = os.path.join(args.report_dir, "serve.fleet.json")
            with open(path, "w") as handle:
                handle.write(report.to_json() + "\n")
            print(f"[artifact] {path}")
        return 0 if report.reproducible else 1
    if args.command == "metrics":
        from repro.obs import cli as metrics_cli

        return metrics_cli.run(args)
    names = (
        sorted(EXPERIMENTS) if args.command == "all" else [args.command]
    )
    executor = exec_cli.runner_from_args(args, shutdown=shutdown)
    for name in names:
        _run_one(
            name, args.loads, report_dir=args.report_dir, executor=executor
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
