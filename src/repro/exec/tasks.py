"""The registered job functions behind the engine's ``fn_id``s.

Each function takes ``(config, seed)`` — a JSON-able parameter dict and
an integer seed — and returns a JSON-able result, per the purity
contract in :mod:`repro.exec.jobs`. Heavy packages are imported inside
the functions: a worker that only runs design-space jobs never pays for
the simulator, and importing this module stays instant for registry
resolution.

``exec_probe`` is deliberately impure *on request* (crash, sleep,
env-echo): it exists so the scheduler's isolation machinery — crash
respawn, timeouts, retry budgets — can be exercised by tests and CI
smoke runs without sacrificing a real workload.
"""

import os
import time
from dataclasses import asdict
from typing import Any, Dict, List

__all__ = [
    "chaos_scenario",
    "dse_points",
    "eval_load_point",
    "exec_probe",
    "serve_fleet_scenario",
]


def dse_points(config: Dict[str, Any], seed: int) -> List[Dict[str, Any]]:
    """A slice of the Figure 6 design-space sweep.

    Config: ``encoding``, ``n_values``, ``frequencies_hz``,
    ``w_values``. Returns the feasible points of the slice in sweep
    order (n outer, frequency inner, width innermost) as plain dicts.
    The seed is unused — the sweep is analytic — but remains part of
    the cache key like every job's.
    """
    from repro.dse.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(
        str(config["encoding"]),
        n_values=[int(n) for n in config["n_values"]],
        frequencies_hz=[float(f) for f in config["frequencies_hz"]],
        w_values=[int(w) for w in config["w_values"]],
    )
    return [asdict(point) for point in explorer.sweep()]


def eval_load_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One inference load point on one accelerator variant (Figure 7).

    Config: ``latency_class``, ``encoding``, ``load``, ``batches``,
    plus optional ``training`` (default false; when true the variant
    carries the DeepBench LSTM training workload, the Figure 9 shape —
    the key is optional so pre-existing Figure 7 cache digests are
    untouched). Returns the headline measurements plus the full
    observability capture state, so the parent process can fold the
    point into its :class:`repro.eval.runner.ExperimentCapture` exactly
    as a serial run would have.
    """
    from repro.eval.runner import ExperimentCapture, build_accelerator

    training_model = None
    if config.get("training"):
        from repro.models.lstm import deepbench_lstm

        training_model = deepbench_lstm()
    accelerator = build_accelerator(
        latency_class=str(config["latency_class"]),
        encoding=str(config["encoding"]),
        training_model=training_model,
    )
    batches = int(config["batches"])
    requests = max(500, batches * accelerator.batch_slots)
    report = accelerator.run(
        load=float(config["load"]), requests=requests, seed=seed
    )
    capture = ExperimentCapture("load_point")
    capture.observe(accelerator)
    return {
        "inference_top_s": report.inference_top_s,
        "training_top_s": report.training_top_s,
        "p50_latency_us": report.p50_latency_us,
        "p99_latency_us": report.p99_latency_us,
        "mean_latency_us": report.mean_latency_us,
        "requests_completed": report.requests_completed,
        "capture": capture.state_dict(),
    }


def chaos_scenario(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One chaos-matrix scenario (run twice: determinism self-check)."""
    from repro.faults import chaos

    return chaos.run_scenario(config, seed)


def serve_fleet_scenario(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fleet-size serving scenario (run twice: determinism
    self-check) — a curve point of ``repro.serve/fleet-report/v1``."""
    from repro.serve import scenarios

    return scenarios.run_scenario(config, seed)


def exec_probe(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Scheduler-infrastructure probe (tests and CI smoke).

    Modes (``config["mode"]``):

    * ``echo`` (default) — return pid-independent deterministic data;
    * ``sleep`` — sleep ``config["seconds"]`` first (timeout tests);
    * ``crash`` — hard-kill the worker (``os._exit``), exercising
      ``BrokenProcessPool`` recovery;
    * ``raise`` — raise ``ValueError`` (deterministic-failure path).
    """
    mode = str(config.get("mode", "echo"))
    if mode == "crash":
        os._exit(13)
    if mode == "raise":
        raise ValueError(f"probe asked to fail (seed={seed})")
    if mode == "sleep":
        time.sleep(float(config.get("seconds", 0.1)))
    payload = config.get("payload")
    return {"payload": payload, "seed": seed, "mode": mode}
