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
    """One offered-load point on one named Equinox variant.

    Config: ``latency_class``, ``load`` and ``batches``, plus optional
    ``encoding``, ``model`` (``lstm``, ``gru`` with ``steps`` or
    ``resnet50`` with ``image_size``), ``training`` (true: the variant
    also trains its own inference model), ``scheduler``, ``batching``,
    ``batch_timeout_x`` and ``chunk_us``; an absent key takes
    :func:`repro.eval.runner.build_accelerator`'s default. Returns what
    the figures read plus the point's observability capture state, so
    the parent folds it into its
    :class:`repro.eval.runner.ExperimentCapture`.
    """
    from repro.eval.runner import (
        ExperimentCapture,
        build_accelerator,
        simulate_load_point,
    )

    kwargs = {
        key: config[key]
        for key in ("encoding", "scheduler", "batching", "batch_timeout_x",
                    "chunk_us")
        if key in config
    }
    if "model" in config:
        kwargs["inference_model"] = _model_spec(config)
    if config.get("training"):
        from repro.models.lstm import deepbench_lstm

        kwargs["training_model"] = kwargs.get("inference_model") or deepbench_lstm()
    accelerator = build_accelerator(str(config["latency_class"]), **kwargs)
    report = simulate_load_point(
        accelerator, float(config["load"]), int(config["batches"]), seed
    )
    capture = ExperimentCapture("load_point")
    capture.observe(accelerator)
    return {
        "inference_top_s": report.inference_top_s,
        "training_top_s": report.training_top_s,
        "p99_latency_us": report.p99_latency_us,
        "batches_completed": report.batches_completed,
        "incomplete_batches": report.incomplete_batches,
        "cycle_breakdown": report.cycle_breakdown,
        "batch_service_us": accelerator.batch_service_us(),
        "capture": capture.state_dict(),
    }


def _model_spec(config: Dict[str, Any]) -> Any:
    """The inference model a load point's ``model`` key names."""
    model = config["model"]
    if model == "lstm":
        from repro.models.lstm import deepbench_lstm

        return deepbench_lstm()
    if model == "gru":
        from repro.models.gru import deepbench_gru

        return deepbench_gru(steps=int(config["steps"]))
    if model == "resnet50":
        from repro.models.resnet import resnet50

        return resnet50(image_size=int(config["image_size"]))
    raise ValueError(f"unknown model {model!r}; expected lstm, gru or resnet50")


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
