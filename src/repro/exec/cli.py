"""CLI glue for the execution engine.

Two pieces, both consumed by ``python -m repro``:

* :func:`add_executor_arguments` / :func:`runner_from_args` — the
  shared ``--jobs N|auto`` / ``--cache-dir`` flags every experiment
  subcommand grows, resolved into one :class:`JobRunner`;
* the ``sweep`` subcommand — the Figure 6 design-space sweep fanned
  out through the engine, with a byte-deterministic ``sweep.json``
  RunReport artifact (identical for any ``--jobs`` value).
"""

import argparse
import json
import sys
from typing import Any, Optional

from repro.exec.scheduler import JobRunner

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "add_executor_arguments",
    "add_sweep_arguments",
    "run_sweep",
    "runner_from_args",
]

#: Default ``--checkpoint-every`` period (executed jobs between
#: progress checkpoints). Chosen so checkpoint overhead stays well
#: under the 5% budget that CI measures on a checkpointed fig7 load
#: curve, while a preempted sweep loses at most a few jobs' work.
DEFAULT_CHECKPOINT_EVERY = 8


# ----------------------------------------------------------------------
# Shared executor flags
# ----------------------------------------------------------------------


def add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", default=None, metavar="N",
        help="fan independent work units out over N worker processes "
        "('auto' = CPU count); results are bit-identical to --jobs 1",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache: identical (config, seed, "
        "code) jobs are replayed from disk instead of recomputed",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="crash-consistent run state: a completed-work journal "
        "(fsynced per job) plus periodic checkpoint files; a killed run "
        "restarted with --resume skips journaled jobs and converges to "
        "the byte-identical artifact",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=DEFAULT_CHECKPOINT_EVERY,
        metavar="N",
        help="write a progress checkpoint every N executed jobs "
        f"(default {DEFAULT_CHECKPOINT_EVERY}; 0 disables the periodic "
        "barrier — the journal is still written per job)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed jobs from the --checkpoint-dir journal "
        "instead of re-running them (without it, a fresh run discards "
        "the previous journal)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="crash-recovery drill: SIGKILL this process after exactly "
        "N completed (journaled) jobs — CI uses it to prove --resume "
        "converges to the byte-identical artifact",
    )


def runner_from_args(
    args: argparse.Namespace, shutdown: Optional[Any] = None
) -> Optional[JobRunner]:
    """A runner when ``--jobs``/``--cache-dir``/``--checkpoint-dir``
    was given, else None (experiments keep their historical in-process
    path).

    ``shutdown`` is the CLI's :class:`repro.state.GracefulShutdown`
    instance; its ``check`` is polled between jobs so a SIGINT/SIGTERM
    unwinds at a journal-consistent boundary. ``--kill-after`` arms a
    :class:`repro.faults.killswitch.KillSwitch` on the same boundary
    (the drill dies *after* the Nth journal append, never mid-write).
    """
    jobs = getattr(args, "jobs", None)
    cache_dir = getattr(args, "cache_dir", None)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if jobs is None and cache_dir is None and checkpoint_dir is None:
        return None
    kill_after = getattr(args, "kill_after", None)
    on_unit_done = None
    if kill_after is not None:
        from repro.faults.killswitch import KillSwitch

        on_unit_done = KillSwitch(kill_after).note_unit_done
    return JobRunner(
        jobs=jobs if jobs is not None else 1,
        cache_dir=cache_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=getattr(
            args, "checkpoint_every", DEFAULT_CHECKPOINT_EVERY
        ),
        resume=bool(getattr(args, "resume", False)),
        shutdown_check=shutdown.check if shutdown is not None else None,
        on_unit_done=on_unit_done,
    )


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--encodings", nargs="+", default=["hbfp8", "bfloat16"],
        help="datapath encodings to sweep",
    )
    parser.add_argument(
        "--n-max", type=int, default=256,
        help="largest systolic-array side n to sweep (grid is 1..n-max)",
    )
    parser.add_argument(
        "--chunk", type=int, default=8,
        help="n-values per job (job granularity, not results: the "
        "artifact is identical for any chunking)",
    )
    parser.add_argument(
        "--report-dir", default=None,
        help="write the structured sweep RunReport artifact "
        "(<dir>/sweep.json)",
    )
    add_executor_arguments(parser)


def run_sweep(
    args: argparse.Namespace, shutdown: Optional[Any] = None
) -> int:
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.dse.pareto import pareto_frontier
    from repro.eval.fig6 import Fig6Result, render
    from repro.exec.canonical import code_fingerprint, config_digest

    if args.n_max < 1:
        print(f"--n-max must be >= 1, got {args.n_max}", file=sys.stderr)
        return 2
    runner = runner_from_args(args, shutdown=shutdown) or JobRunner(jobs=1)
    if runner.checkpoint_store is not None:
        # Periodic barrier: persist sweep progress next to the journal.
        # The journal alone carries the resume contract; the checkpoint
        # is the cheap observable marker (how far did the run get?).
        def _sweep_checkpoint() -> None:
            counters = runner.counters
            runner.checkpoint_store.save(
                "sweep", {"counters": counters},
                step=counters["executed"],
            )

        runner.set_checkpoint_cb(_sweep_checkpoint)
    clouds = {}
    frontiers = {}
    for encoding in args.encodings:
        explorer = DesignSpaceExplorer(
            encoding, n_values=range(1, args.n_max + 1)
        )
        clouds[encoding] = explorer.sweep(executor=runner, chunk=args.chunk)
        frontiers[encoding] = pareto_frontier(clouds[encoding])
    result = Fig6Result(clouds=clouds, frontiers=frontiers)
    print(render(result))
    counters = runner.counters
    print(
        f"\n[exec: jobs={runner.jobs} executed={counters['executed']} "
        f"cache_hits={counters['cache_hits']} "
        f"journal_hits={counters['journal_hits']} "
        f"retries={counters['retries']}]",
        file=sys.stderr,
    )
    if args.report_dir is not None:
        report = _sweep_report(args, result, code_fingerprint, config_digest)
        _write_report(report, args.report_dir)
    return 0


def _sweep_report(args, result, code_fingerprint, config_digest):
    """The sweep artifact. Every field is a function of the sweep
    *results* and grid — never of --jobs/--chunk/--cache-dir — which is
    what makes the byte-identity guarantee checkable with cmp(1)."""
    from dataclasses import asdict

    from repro.obs.report import RunReport

    metrics = {}
    checksums = {}
    for encoding in args.encodings:
        cloud = result.clouds[encoding]
        front = result.frontiers[encoding]
        metrics[encoding] = {
            "cloud_points": len(cloud),
            "frontier_points": len(front),
            "knee_top_s": result.knee_throughput(encoding),
            "max_top_s": result.max_throughput(encoding),
            "min_service_us": min(p.service_time_us for p in front),
        }
        checksums[encoding] = config_digest([asdict(p) for p in cloud])
    return RunReport(
        name="sweep",
        kind="experiment",
        config={
            "encodings": list(args.encodings),
            "n_max": args.n_max,
            "code_version": code_fingerprint(),
            "cloud_sha256": checksums,
        },
        metrics=metrics,
    )


def _write_report(report, directory: str) -> None:
    import os

    from repro.obs.report import validate_report

    text = report.to_json()
    for problem in validate_report(json.loads(text)):
        print(f"invalid artifact {report.name}: {problem}", file=sys.stderr)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{report.name}.json")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"[artifact] {path}")
