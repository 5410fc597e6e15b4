"""Shared simulation plumbing for the per-figure experiments.

Besides building accelerators and running load points, this module
hosts the experiment-level observability capture: wrap an experiment in
:func:`capture_run` and every load point :func:`run_load_points` runs
inside it feeds one shared :class:`ExperimentCapture`, which aggregates
latency (into a bounded-memory quantile sketch), throughput, the
Figure-8 cycle breakdown and fault counters across *all* the
accelerators the experiment builds — that aggregate becomes the
experiment's :class:`repro.obs.report.RunReport` artifact.
"""

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.equinox import EquinoxAccelerator, SimulationReport
from repro.dse.table1 import equinox_configuration
from repro.hw.config import AcceleratorConfig
from repro.models.graph import ModelSpec
from repro.models.lstm import deepbench_lstm
from repro.obs.report import RunReport
from repro.obs.sketch import QuantileSketch
from repro.sim.stats import CYCLE_CATEGORIES
from repro.workload.metrics import SLO_MULTIPLE

#: Batches of measurement per load point; enough for a stable p99 at
#: batch sizes in the hundreds while keeping sweeps interactive.
DEFAULT_BATCHES = 12


def build_accelerator(
    latency_class: str = "500us",
    encoding: str = "hbfp8",
    inference_model: Optional[ModelSpec] = None,
    training_model: Optional[ModelSpec] = None,
    scheduler: str = "priority",
    batching: str = "adaptive",
    batch_timeout_x: float = 2.0,
    chunk_us: float = 2.0,
    config: Optional[AcceleratorConfig] = None,
) -> EquinoxAccelerator:
    """Build an Equinox instance for one named design point."""
    if config is None:
        config = equinox_configuration(latency_class, encoding)
    return EquinoxAccelerator(
        config,
        inference_model or deepbench_lstm(),
        training_model=training_model,
        scheduler=scheduler if training_model is not None else "inference_only",
        batching=batching,
        batch_timeout_x=batch_timeout_x,
        chunk_us=chunk_us,
    )


def simulate_load_point(
    accelerator: EquinoxAccelerator,
    load: float,
    batches: int = DEFAULT_BATCHES,
    seed: int = 0,
) -> SimulationReport:
    """Run one offered-load point for ``batches`` worth of requests."""
    requests = max(500, batches * accelerator.batch_slots)
    return accelerator.run(load=load, requests=requests, seed=seed)


class ExperimentCapture:
    """Aggregates measurements across every accelerator an experiment
    drives, producing one :class:`RunReport` for the whole sweep.

    Every accelerator is observed once, after its run has finished:
    inside each ``eval.load_point`` job, whose capture state the parent
    folds in with :meth:`merge_state`, and once by ``spike``. So
    :meth:`observe` just adds the accelerator's totals.
    """

    def __init__(self, name: str):
        self.name = name
        self.latency_us = QuantileSketch()
        self.duration_cycles = 0.0
        self.frequency_hz: Optional[float] = None
        self.ops: Dict[str, float] = {"inference": 0.0, "training": 0.0}
        self.busy: Dict[str, float] = {
            c: 0.0 for c in CYCLE_CATEGORIES if c != "idle"
        }
        self.windows = 0
        #: One fault-counter dict per observed accelerator, in order.
        self._fault_totals: List[Dict[str, float]] = []

    def observe(self, accelerator: EquinoxAccelerator) -> None:
        """Fold one finished accelerator's totals."""
        config = accelerator.config
        self.latency_us.observe_many(
            map(config.cycles_to_us, accelerator.engine.latency.samples_since(0))
        )
        self.duration_cycles += accelerator.sim.now
        for context in self.ops:
            meter = accelerator.mmu.throughput_by_context.get(context)
            self.ops[context] += meter.total_ops if meter is not None else 0.0
        for category, cycles in accelerator.mmu.accounting.busy_cycles().items():
            self.busy[category] += cycles
        self.frequency_hz = config.frequency_hz
        self._fault_totals.append({
            str(k): float(v)
            for k, v in accelerator.fault_counters.as_dict().items()
        })
        self.windows += 1

    def state_dict(self) -> Dict[str, Any]:
        """The capture as JSON-able, lossless, mergeable state.

        Workers running load points in other processes return this
        through the execution engine; the parent folds each one in with
        :meth:`merge_state`, in submission order, so a fanned-out
        experiment aggregates exactly like a serial one.
        """
        return {
            "latency": self.latency_us.to_state(),
            "duration_cycles": self.duration_cycles,
            "frequency_hz": self.frequency_hz,
            "ops": dict(self.ops),
            "busy": dict(self.busy),
            "windows": self.windows,
            "fault_totals": list(self._fault_totals),
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another capture's :meth:`state_dict` into this one."""
        self.latency_us.merge_state(state["latency"])
        self.duration_cycles += float(state["duration_cycles"])
        if state.get("frequency_hz") is not None:
            self.frequency_hz = float(state["frequency_hz"])
        for context, total in state["ops"].items():
            self.ops[context] = self.ops.get(context, 0.0) + float(total)
        for category, cycles in state["busy"].items():
            self.busy[category] = self.busy.get(category, 0.0) + float(cycles)
        self.windows += int(state["windows"])
        for totals in state["fault_totals"]:
            self._fault_totals.append({
                str(key): float(value) for key, value in totals.items()
            })

    def build_report(
        self, config: Optional[Dict[str, Any]] = None
    ) -> RunReport:
        """The aggregate artifact (latency ``None`` when nothing ran)."""
        if self.latency_us.count > 0:
            latency = self.latency_us.to_dict()
            latency_us: Dict[str, Optional[float]] = {
                "p50": latency["p50"],
                "p99": latency["p99"],
                "mean": latency["mean"],
                "max": latency["max"],
            }
        else:
            latency_us = {"p50": None, "p99": None, "mean": None, "max": None}

        throughput: Dict[str, float] = {}
        breakdown: Dict[str, float] = {}
        if self.duration_cycles > 0 and self.frequency_hz:
            to_top_s = self.frequency_hz / 1e12 / self.duration_cycles
            throughput = {
                context: self.ops[context] * to_top_s for context in self.ops
            }
            busy_total = 0.0
            for category, cycles in self.busy.items():
                fraction = min(1.0, cycles / self.duration_cycles)
                breakdown[category] = fraction
                busy_total += fraction
            breakdown["idle"] = max(0.0, 1.0 - busy_total)

        faults: Dict[str, float] = {}
        for totals in self._fault_totals:
            for key, value in totals.items():
                faults[key] = faults.get(key, 0.0) + value

        full_config = {"windows": self.windows}
        if config:
            full_config.update(config)
        return RunReport(
            name=self.name,
            kind="experiment",
            config=full_config,
            latency_us=latency_us,
            throughput_top_s=throughput,
            cycle_breakdown=breakdown,
            faults={key: faults[key] for key in sorted(faults)},
            metrics={
                "latency_us": self.latency_us.to_dict()
                if self.latency_us.count else {},
                "duration_cycles": self.duration_cycles,
            },
        )


#: The capture every load point inside :func:`capture_run` reports into
#: (module-global because the experiment modules call the runner free
#: functions, not methods on some context object).
_ACTIVE_CAPTURE: Optional[ExperimentCapture] = None


@contextmanager
def capture_run(name: str) -> Iterator[ExperimentCapture]:
    """Collect every load point run inside the block into one capture."""
    global _ACTIVE_CAPTURE
    if _ACTIVE_CAPTURE is not None:
        raise RuntimeError("experiment captures do not nest")
    capture = ExperimentCapture(name)
    _ACTIVE_CAPTURE = capture
    try:
        yield capture
    finally:
        _ACTIVE_CAPTURE = None


def run_load_points(
    points: Sequence[Dict[str, Any]],
    seed: int = 0,
    executor: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """Run each point as one ``eval.load_point`` job, in order.

    ``executor`` is a :class:`repro.exec.scheduler.JobRunner`; without one the
    points run in this process through ``JobRunner(jobs=1)``. Either
    way each result's ``capture`` is folded into the active capture as
    it completes, in submission order, so a serial and a fanned-out run
    aggregate alike, and a run stopped part-way has folded every point
    that finished.
    """
    from repro.exec.jobs import Job
    from repro.exec.scheduler import JobRunner

    runner = executor if executor is not None else JobRunner(jobs=1)
    capture = _ACTIVE_CAPTURE
    fold = None
    if capture is not None:
        fold = lambda result: capture.merge_state(result["capture"])
    return runner.map(
        [Job("eval.load_point", point, seed=seed) for point in points],
        on_result=fold,
    )


def latency_target_us(encoding: str = "hbfp8") -> float:
    """The paper's SLO: 10× the mean LSTM service time on the 500 µs
    configuration (applied to every configuration of that encoding)."""
    reference = build_accelerator("500us", encoding)
    return SLO_MULTIPLE * reference.batch_service_us()
