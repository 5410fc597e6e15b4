"""Figure 8: MMU cycle-usage breakdown of Equinox_500µs.

At 5 %, 50 % and 95 % offered load, with and without a piggybacked
training service, every MMU cycle is attributed to working / dummy /
idle / other. The shapes to check: at 5 % load roughly half the cycles
idle and most of the rest burn on batch-padding dummies; adding
training reclaims most idle cycles; at 95 % the accelerator saturates
and training is starved out by the spike guard.
"""

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.eval.report import render_table
from repro.eval.runner import run_load_points
from repro.sim.stats import CYCLE_CATEGORIES

DEFAULT_LOADS = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class Fig8Result:
    #: (load, with_training) -> category -> fraction.
    breakdowns: Dict[Tuple[float, bool], Dict[str, float]]
    #: (load, with_training) -> training TOp/s (0 without training).
    training_top_s: Dict[Tuple[float, bool], float]

    def idle_reclaimed(self, load: float) -> float:
        """Idle-fraction drop when training is added at ``load``."""
        return (
            self.breakdowns[(load, False)]["idle"]
            - self.breakdowns[(load, True)]["idle"]
        )


def run(
    loads: Sequence[float] = DEFAULT_LOADS,
    latency_class: str = "500us",
    batches: int = 12,
    seed: int = 0,
    executor: Optional[Any] = None,
) -> Fig8Result:
    keys = [
        (load, with_training)
        for load in loads
        for with_training in (False, True)
    ]
    results = run_load_points(
        [
            {"latency_class": latency_class, "load": load,
             "batches": batches, "training": with_training}
            for load, with_training in keys
        ],
        seed,
        executor,
    )
    return Fig8Result(
        breakdowns={
            key: result["cycle_breakdown"] for key, result in zip(keys, results)
        },
        training_top_s={
            key: result["training_top_s"] for key, result in zip(keys, results)
        },
    )


def render(result: Fig8Result) -> str:
    rows = []
    for (load, with_training), breakdown in sorted(result.breakdowns.items()):
        label = "Inf+Train" if with_training else "Inf"
        rows.append(
            (
                f"{load * 100:.0f}%",
                label,
                *(f"{breakdown[c] * 100:.1f}%" for c in CYCLE_CATEGORIES),
                f"{result.training_top_s[(load, with_training)]:.1f}",
            )
        )
    return render_table(
        "Figure 8: Equinox_500us MMU cycle breakdown",
        ["load", "services", *CYCLE_CATEGORIES, "train TOp/s"],
        rows,
    )
