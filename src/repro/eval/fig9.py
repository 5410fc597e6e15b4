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
from repro.eval.runner import (
    build_accelerator,
    contribute_capture_state,
    simulate_load_point,
)
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
    """With an ``executor`` each (class, load) point fans out as an
    ``eval.load_point`` job with ``training`` set."""
    dedicated = build_training_plan(
        deepbench_lstm(), equinox_configuration("none")
    ).dedicated_throughput_top_s()
    if executor is not None:
        return _run_jobs(loads, classes, batches, seed, executor, dedicated)
    curves: Dict[str, List[float]] = {}
    for latency_class in classes:
        series = []
        for load in loads:
            acc = build_accelerator(
                latency_class, training_model=deepbench_lstm()
            )
            report = simulate_load_point(acc, load, batches=batches, seed=seed)
            series.append(report.training_top_s)
        curves[latency_class] = series
    return Fig9Result(loads=list(loads), curves=curves, dedicated_top_s=dedicated)


def _run_jobs(
    loads: Sequence[float],
    classes: Sequence[str],
    batches: int,
    seed: int,
    executor: Any,
    dedicated: float,
) -> Fig9Result:
    from repro.exec.jobs import Job

    jobs = [
        Job(
            "eval.load_point",
            {
                "latency_class": latency_class,
                "encoding": "hbfp8",
                "load": load,
                "batches": batches,
                "training": True,
            },
            seed=seed,
        )
        for latency_class in classes
        for load in loads
    ]
    results = iter(executor.map(jobs))
    curves: Dict[str, List[float]] = {}
    for latency_class in classes:
        series = []
        for _ in loads:
            result = next(results)
            contribute_capture_state(result["capture"])
            series.append(result["training_top_s"])
        curves[latency_class] = series
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
