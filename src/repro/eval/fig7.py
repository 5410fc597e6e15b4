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
from repro.eval.runner import latency_target_us, run_load_points

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
    """Every (class, load) point is one ``eval.load_point`` job, run
    through ``executor`` (a :class:`repro.exec.scheduler.JobRunner`)
    when given; curves are read back in sweep order, so the result is
    the same for any worker count."""
    targets: Dict[str, float] = {}
    plan: List[Tuple[str, str]] = []
    for encoding in encodings:
        classes = HBFP8_CLASSES if encoding == "hbfp8" else BFLOAT16_CLASSES
        targets[encoding] = latency_target_us(encoding) / 1e3
        plan.extend((encoding, latency_class) for latency_class in classes)
    points = [
        {"latency_class": latency_class, "encoding": encoding,
         "load": load, "batches": batches}
        for encoding, latency_class in plan
        for load in loads
    ]
    results = iter(run_load_points(points, seed, executor))
    curves: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for encoding, latency_class in plan:
        series = []
        for _ in loads:
            result = next(results)
            series.append(
                (result["inference_top_s"], result["p99_latency_us"] / 1e3)
            )
        curves.setdefault(encoding, {})[latency_class] = series
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
