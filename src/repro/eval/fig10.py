"""Figure 10: scheduling-policy comparison on Equinox_500µs.

Three configurations sweep offered load: inference alone (Inf),
inference plus training under fair-share scheduling, and inference
plus training under Equinox's hardware priority scheduler. Shapes to
check: training inflates p99 even at low load under both policies
(round-robin interleaving stretches service times); under the latency
target, priority scheduling sustains ~1.3× the fair scheduler's
throughput and matches the inference-only accelerator.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.report import render_table
from repro.eval.runner import latency_target_us, run_load_points

DEFAULT_LOADS = (0.2, 0.4, 0.6, 0.8, 0.95)
POLICIES = (
    ("Inf", None),
    ("Inf+Train+Fair", "fair"),
    ("Inf+Train+Priority", "priority"),
)


@dataclass(frozen=True)
class Fig10Result:
    #: policy label -> list of (inference TOp/s, p99 ms, train TOp/s).
    curves: Dict[str, List[Tuple[float, float, float]]]
    latency_target_ms: float

    def max_throughput_under_target(self, label: str) -> float:
        eligible = [
            tput for tput, p99, _ in self.curves[label]
            if p99 <= self.latency_target_ms
        ]
        return max(eligible, default=0.0)

    def priority_over_fair(self) -> float:
        fair = self.max_throughput_under_target("Inf+Train+Fair")
        priority = self.max_throughput_under_target("Inf+Train+Priority")
        if fair <= 0:
            return float("inf")
        return priority / fair


def run(
    loads: Sequence[float] = DEFAULT_LOADS,
    latency_class: str = "500us",
    batches: int = 12,
    seed: int = 0,
    executor: Optional[Any] = None,
) -> Fig10Result:
    target_ms = latency_target_us() / 1e3
    points: List[Dict[str, Any]] = []
    for _label, policy in POLICIES:
        variant = {"latency_class": latency_class, "batches": batches}
        if policy:
            variant.update(training=True, scheduler=policy)
        points += [{**variant, "load": load} for load in loads]
    results = iter(run_load_points(points, seed, executor))
    curves: Dict[str, List[Tuple[float, float, float]]] = {}
    for label, _policy in POLICIES:
        series = []
        for _ in loads:
            result = next(results)
            series.append(
                (
                    result["inference_top_s"],
                    result["p99_latency_us"] / 1e3,
                    result["training_top_s"],
                )
            )
        curves[label] = series
    return Fig10Result(curves=curves, latency_target_ms=target_ms)


def render(result: Fig10Result) -> str:
    rows = []
    for label, series in result.curves.items():
        for tput, p99, train in series:
            rows.append((label, f"{tput:.1f}", f"{p99:.3f}", f"{train:.1f}"))
    table = render_table(
        f"Figure 10: p99 vs inference throughput by scheduling policy "
        f"(target {result.latency_target_ms:.2f} ms)",
        ["policy", "inf TOp/s", "p99_ms", "train TOp/s"],
        rows,
    )
    summary = (
        f"priority over fair under the latency target: "
        f"{result.priority_over_fair():.2f}x (paper: 1.3x)"
    )
    return table + "\n\n" + summary
