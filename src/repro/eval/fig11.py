"""Figure 11: adaptive batching — policy, threshold, and training impact.

Three panels on Equinox_500µs:

* (a) static vs adaptive batching: p99 latency vs offered load —
  static batching's formation time dominates and violates the target
  at low load; adaptive batching bounds it;
* (b) the adaptive timeout threshold (2×–10× the service time) traded
  against p99 at swept load;
* (c) the same threshold sweep's effect on harvested training
  throughput.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.report import render_series
from repro.eval.runner import latency_target_us, run_load_points

DEFAULT_LOADS = (0.08, 0.2, 0.4, 0.6, 0.8, 0.95)
DEFAULT_THRESHOLDS = (2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class Fig11Result:
    loads: List[float]
    #: (a) policy -> p99 ms per load.
    batching_p99_ms: Dict[str, List[float]]
    #: (b/c) threshold multiple -> (p99 ms, train TOp/s, incomplete frac) per load.
    threshold_curves: Dict[float, List[Tuple[float, float, float]]]
    latency_target_ms: float

    def static_violates_at_low_load(self) -> bool:
        return self.batching_p99_ms["static"][0] > self.latency_target_ms

    def adaptive_meets_at_low_load(self) -> bool:
        return self.batching_p99_ms["adaptive"][0] <= self.latency_target_ms


def run(
    loads: Sequence[float] = DEFAULT_LOADS,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    latency_class: str = "500us",
    batches: int = 12,
    seed: int = 0,
    executor: Optional[Any] = None,
) -> Fig11Result:
    target_ms = latency_target_us() / 1e3
    policies = ("static", "adaptive")
    base = {"latency_class": latency_class, "batches": batches}
    points = [
        {**base, "load": load, "batching": policy}
        for policy in policies
        for load in loads
    ] + [
        {**base, "load": load, "training": True, "batch_timeout_x": threshold}
        for threshold in thresholds
        for load in loads
    ]
    results = iter(run_load_points(points, seed, executor))

    batching_p99: Dict[str, List[float]] = {
        policy: [next(results)["p99_latency_us"] / 1e3 for _ in loads]
        for policy in policies
    }

    threshold_curves: Dict[float, List[Tuple[float, float, float]]] = {}
    for threshold in thresholds:
        series = []
        for _ in loads:
            result = next(results)
            incomplete = (
                result["incomplete_batches"] / result["batches_completed"]
                if result["batches_completed"] else 0.0
            )
            series.append(
                (result["p99_latency_us"] / 1e3, result["training_top_s"],
                 incomplete)
            )
        threshold_curves[threshold] = series
    return Fig11Result(
        loads=list(loads),
        batching_p99_ms=batching_p99,
        threshold_curves=threshold_curves,
        latency_target_ms=target_ms,
    )


def render(result: Fig11Result) -> str:
    part_a = render_series(
        f"Figure 11a: p99 (ms) vs load, static vs adaptive batching "
        f"(target {result.latency_target_ms:.2f} ms)",
        "load",
        result.loads,
        result.batching_p99_ms,
    )
    part_b = render_series(
        "Figure 11b: p99 (ms) vs load by adaptive threshold (x service time)",
        "load",
        result.loads,
        {
            f"{threshold:.0f}x": [p99 for p99, _, _ in series]
            for threshold, series in result.threshold_curves.items()
        },
    )
    part_c = render_series(
        "Figure 11c: training throughput (TOp/s) vs load by threshold",
        "load",
        result.loads,
        {
            f"{threshold:.0f}x": [train for _, train, _ in series]
            for threshold, series in result.threshold_curves.items()
        },
    )
    return "\n\n".join([part_a, part_b, part_c])
