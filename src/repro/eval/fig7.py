"""Figure 7: inference 99th-percentile latency vs throughput.

Sweeps offered load on each Equinox configuration running inference
alone and reports (measured throughput, p99 latency) pairs. The shapes
to check: the min-latency design plateaus at low throughput; the
relaxed designs reach ~6× higher throughput; at low load the 500 µs
design's p99 is dominated by the adaptive-batching wait; hbfp8 reaches
~5-6× bfloat16's throughput under the same latency target.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.report import render_table
from repro.eval.runner import (
    build_accelerator,
    contribute_capture_state,
    latency_target_us,
    simulate_load_point,
)

DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.85, 0.95)
HBFP8_CLASSES = ("min", "none", "50us", "500us")
BFLOAT16_CLASSES = ("min", "none", "500us")


@dataclass(frozen=True)
class Fig7Result:
    #: encoding -> class -> list of (throughput TOp/s, p99 ms).
    curves: Dict[str, Dict[str, List[Tuple[float, float]]]]
    latency_target_ms: Dict[str, float]

    def max_throughput_under_target(self, encoding: str, latency_class: str) -> float:
        target = self.latency_target_ms[encoding]
        eligible = [
            tput for tput, p99 in self.curves[encoding][latency_class]
            if p99 <= target
        ]
        return max(eligible, default=0.0)


def run(
    loads: Sequence[float] = DEFAULT_LOADS,
    batches: int = 12,
    encodings: Sequence[str] = ("hbfp8", "bfloat16"),
    seed: int = 0,
    executor: Optional[Any] = None,
) -> Fig7Result:
    """With an ``executor`` (a :class:`repro.exec.JobRunner`), every
    (class, load) point becomes an ``eval.load_point`` job; curve and
    capture aggregation stays in sweep order, so the result is the same
    for any worker count."""
    curves: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    targets: Dict[str, float] = {}
    if executor is not None:
        return _run_jobs(loads, batches, encodings, seed, executor)
    for encoding in encodings:
        classes = HBFP8_CLASSES if encoding == "hbfp8" else BFLOAT16_CLASSES
        targets[encoding] = latency_target_us(encoding) / 1e3
        curves[encoding] = {}
        for latency_class in classes:
            points = []
            for load in loads:
                acc = build_accelerator(latency_class, encoding)
                report = simulate_load_point(acc, load, batches=batches, seed=seed)
                points.append(
                    (report.inference_top_s, report.p99_latency_us / 1e3)
                )
            curves[encoding][latency_class] = points
    return Fig7Result(curves=curves, latency_target_ms=targets)


def _run_jobs(
    loads: Sequence[float],
    batches: int,
    encodings: Sequence[str],
    seed: int,
    executor: Any,
) -> Fig7Result:
    from repro.exec.jobs import Job

    targets: Dict[str, float] = {}
    plan: List[Tuple[str, str]] = []
    jobs: List[Job] = []
    for encoding in encodings:
        classes = HBFP8_CLASSES if encoding == "hbfp8" else BFLOAT16_CLASSES
        targets[encoding] = latency_target_us(encoding) / 1e3
        for latency_class in classes:
            plan.append((encoding, latency_class))
            for load in loads:
                jobs.append(
                    Job(
                        "eval.load_point",
                        {
                            "latency_class": latency_class,
                            "encoding": encoding,
                            "load": load,
                            "batches": batches,
                        },
                        seed=seed,
                    )
                )
    results = iter(executor.map(jobs))
    curves: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for encoding, latency_class in plan:
        points = []
        for _ in loads:
            result = next(results)
            contribute_capture_state(result["capture"])
            points.append(
                (result["inference_top_s"], result["p99_latency_us"] / 1e3)
            )
        curves.setdefault(encoding, {})[latency_class] = points
    return Fig7Result(curves=curves, latency_target_ms=targets)


def render(result: Fig7Result) -> str:
    parts = []
    for encoding, by_class in result.curves.items():
        rows = []
        for latency_class, points in by_class.items():
            for tput, p99 in points:
                rows.append((latency_class, f"{tput:.1f}", f"{p99:.3f}"))
        parts.append(
            render_table(
                f"Figure 7 ({encoding}): p99 latency vs inference throughput "
                f"(target {result.latency_target_ms[encoding]:.2f} ms)",
                ["config", "TOp/s", "p99_ms"],
                rows,
            )
        )
    if "hbfp8" in result.curves and "bfloat16" in result.curves:
        h = result.max_throughput_under_target("hbfp8", "500us")
        b = result.max_throughput_under_target("bfloat16", "500us")
        if b > 0:
            parts.append(
                f"hbfp8 vs bfloat16 under the latency target: "
                f"{h:.0f} vs {b:.0f} TOp/s = {h / b:.2f}x (paper: up to 5.15x)"
            )
    return "\n\n".join(parts)
