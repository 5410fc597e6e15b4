"""Figure 9: training throughput vs inference load.

Each Equinox configuration hosts the LSTM inference service at a swept
offered load while an LSTM training service (batch 128) harvests the
remaining cycles. The reference line is the dedicated training
accelerator that saturates compute and HBM (the paper's "maximum
achievable" throughput). Shapes to check: the relaxed designs harvest
close to the DRAM-bound maximum at low load and decline as load rises;
Equinox_min stays under ~20 % of the maximum throughout.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.dse.table1 import equinox_configuration
from repro.eval.report import render_series
from repro.eval.runner import run_load_points
from repro.models.lstm import deepbench_lstm
from repro.models.training import build_training_plan

DEFAULT_LOADS = (0.2, 0.4, 0.6, 0.8, 0.95)
DEFAULT_CLASSES = ("min", "none", "50us", "500us")


@dataclass(frozen=True)
class Fig9Result:
    loads: List[float]
    #: class -> training TOp/s per load.
    curves: Dict[str, List[float]]
    dedicated_top_s: float

    def fraction_of_max(self, latency_class: str, load: float) -> float:
        index = self.loads.index(load)
        return self.curves[latency_class][index] / self.dedicated_top_s


def run(
    loads: Sequence[float] = DEFAULT_LOADS,
    classes: Sequence[str] = DEFAULT_CLASSES,
    batches: int = 12,
    seed: int = 0,
    executor: Optional[Any] = None,
) -> Fig9Result:
    """Each (class, load) point is one ``eval.load_point`` job with
    ``training`` set."""
    dedicated = build_training_plan(
        deepbench_lstm(), equinox_configuration("none")
    ).dedicated_throughput_top_s()
    results = iter(
        run_load_points(
            [
                {"latency_class": latency_class, "load": load,
                 "batches": batches, "training": True}
                for latency_class in classes
                for load in loads
            ],
            seed,
            executor,
        )
    )
    curves = {
        latency_class: [next(results)["training_top_s"] for _ in loads]
        for latency_class in classes
    }
    return Fig9Result(loads=list(loads), curves=curves, dedicated_top_s=dedicated)


def render(result: Fig9Result) -> str:
    body = render_series(
        "Figure 9: training throughput (TOp/s) vs inference load",
        "load",
        result.loads,
        result.curves,
    )
    summary = (
        f"dedicated training accelerator reference: "
        f"{result.dedicated_top_s:.1f} TOp/s; at 60% load Equinox_500us "
        f"reaches {result.fraction_of_max('500us', 0.6) * 100:.0f}% of it "
        f"(paper: 78%), Equinox_min "
        f"{result.fraction_of_max('min', 0.6) * 100:.0f}% (paper: 19%)"
        if 0.6 in result.loads and "500us" in result.curves
        else f"dedicated reference: {result.dedicated_top_s:.1f} TOp/s"
    )
    return body + "\n\n" + summary
