"""A fleet of Equinox accelerators training one model together.

Each worker serves its own inference load (simulated event-level) while
harvesting training; the fleet's synchronous rounds are composed by the
parameter server. The headline question this answers is the paper's
premise at datacenter scale: how many dedicated training accelerators'
worth of throughput does a fleet of busy inference accelerators give
away for free?

Fault tolerance (``repro.faults``): a :class:`FaultPlan` can crash
workers mid-round, slow others down (stragglers), and inject
HBM/MMU/request faults into each worker's own simulation. The fleet
survives by partial aggregation — the round completes over whoever is
left — and by round checkpoints: every finished worker measurement is
recorded in a :class:`RoundCheckpoint`, so a re-run after a crash
resumes without re-simulating the survivors.
"""

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.cluster.parameter_server import ParameterServer, SyncRound
from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.faults.counters import FaultCounters
from repro.faults.injector import FaultInjector, WorkerCrashError
from repro.faults.plan import FaultPlan, WorkerFaultSpec
from repro.models.graph import ModelSpec
from repro.models.lstm import deepbench_lstm
from repro.models.training import build_training_plan
from repro.obs.report import RunReport


@dataclass(frozen=True)
class WorkerReport:
    """One worker's steady-state measurement at its load."""

    worker_id: int
    load: float
    training_top_s: float
    inference_top_s: float
    p99_latency_us: float
    iteration_s: float
    #: Median latency (NaN when not measured; run reports skip it).
    p50_latency_us: float = float("nan")


@dataclass(frozen=True)
class RoundCheckpoint:
    """Completed worker measurements, keyed for safe resumption.

    The checkpoint is the fleet's unit of crash recovery: every worker
    that finishes its measurement is recorded here, so a round that
    loses a worker can be re-run (``train(resume_from=...)``) reusing
    the survivors' results bit-for-bit instead of re-simulating them.
    ``seed`` and ``loads`` key the checkpoint to one measurement
    campaign — resuming under different inputs would silently mix runs,
    so :meth:`EquinoxFleet.train` refuses it.
    """

    seed: int
    loads: Tuple[float, ...]
    reports: Tuple[WorkerReport, ...] = ()

    def report_for(self, worker_id: int) -> Optional[WorkerReport]:
        for report in self.reports:
            if report.worker_id == worker_id:
                return report
        return None


@dataclass(frozen=True)
class FleetReport:
    """Fleet-level synchronous-training summary."""

    workers: List[WorkerReport]
    round: SyncRound
    samples_per_s: float
    fleet_training_top_s: float
    dedicated_top_s: float
    faults: FaultCounters = field(default_factory=FaultCounters)

    @property
    def dedicated_equivalents(self) -> float:
        """How many dedicated training accelerators the fleet's free
        harvest is worth."""
        return self.fleet_training_top_s / self.dedicated_top_s

    @property
    def scaling_efficiency(self) -> float:
        """Fleet throughput relative to the sum of worker harvests
        (losses come from the barrier and the parameter server)."""
        if not self.workers:
            raise ValueError(
                "scaling efficiency is undefined for a report with no "
                "surviving workers"
            )
        independent = sum(w.training_top_s for w in self.workers)
        if independent <= 0:
            raise ValueError(
                "scaling efficiency is undefined when no worker harvested "
                "any training throughput (sum of worker harvests is "
                f"{independent})"
            )
        return self.fleet_training_top_s / independent


class EquinoxFleet:
    """N Equinox accelerators + one parameter server.

    Args:
        size: Number of accelerators.
        latency_class: Design point every worker uses.
        model: Inference/training model (default: the DeepBench LSTM).
        training_batch: Per-worker minibatch.
        server: Parameter-server model.
        fault_plan: Chaos scenario. Worker-level faults (crash,
            straggler) apply at the fleet layer; HBM/MMU/request faults
            are forwarded into every worker's own simulation on
            decorrelated substreams.
        round_timeout_s: Synchronous-round barrier timeout; stragglers
            slower than this are excluded and the round aggregates
            partially.
        min_workers: Fewest workers a round may aggregate before the
            fleet refuses to train (crash + straggler losses combined).
    """

    #: Offset mixed into each worker's forwarded fault-plan seed so the
    #: per-worker HBM/MMU/request fault streams are decorrelated from
    #: each other (and from the fleet-level plan itself).
    _WORKER_SEED_STRIDE = 7919  # a prime, nothing more

    def __init__(
        self,
        size: int,
        latency_class: str = "500us",
        model: Optional[ModelSpec] = None,
        training_batch: int = 128,
        server: Optional[ParameterServer] = None,
        fault_plan: Optional[FaultPlan] = None,
        round_timeout_s: Optional[float] = None,
        min_workers: int = 1,
    ):
        if size < 1:
            raise ValueError("a fleet needs at least one worker")
        if min_workers < 1 or min_workers > size:
            raise ValueError(
                f"min_workers must be in [1, {size}], got {min_workers}"
            )
        if round_timeout_s is not None and round_timeout_s <= 0:
            raise ValueError(
                f"round_timeout_s must be positive, got {round_timeout_s}"
            )
        self.size = size
        self.latency_class = latency_class
        self.model = model or deepbench_lstm()
        self.training_batch = training_batch
        self.server = server or ParameterServer()
        self.config = equinox_configuration(latency_class)
        self.plan = build_training_plan(
            self.model, self.config, batch=training_batch
        )
        self.fault_plan = fault_plan
        self.round_timeout_s = round_timeout_s
        self.min_workers = min_workers
        self.fault_counters = FaultCounters()
        self.fault_injector = (
            FaultInjector(fault_plan, self.fault_counters)
            if fault_plan is not None
            else None
        )
        #: Updated as workers finish measuring; pass back via
        #: ``train(..., resume_from=...)`` to recover a crashed round.
        self.last_checkpoint: Optional[RoundCheckpoint] = None

    def _worker_fault_plan(self, worker_id: int) -> Optional[FaultPlan]:
        """The plan forwarded into one worker's accelerator simulation.

        Worker faults stay at the fleet layer (the accelerator has no
        notion of its fleet identity); the component fault streams are
        re-seeded per worker so fleets don't inject identical fault
        sequences into every accelerator.
        """
        if self.fault_plan is None:
            return None
        hw_plan = replace(
            self.fault_plan,
            seed=self.fault_plan.seed
            + self._WORKER_SEED_STRIDE * (worker_id + 1),
            workers=WorkerFaultSpec(),
        )
        return hw_plan if hw_plan.enabled else None

    def _measure_worker(
        self, worker_id: int, load: float, batches: int, seed: int
    ) -> WorkerReport:
        if self.fault_injector is not None:
            # The crash fires before the measurement lands, as a real
            # mid-round node loss would: whatever the worker computed
            # never reaches the parameter server.
            self.fault_injector.check_worker_crash(worker_id)
        accelerator = EquinoxAccelerator(
            self.config,
            self.model,
            training_model=self.model,
            training_batch=self.training_batch,
            fault_plan=self._worker_fault_plan(worker_id),
        )
        report = accelerator.run(
            load=load,
            requests=max(400, batches * accelerator.batch_slots),
            seed=seed + worker_id,
        )
        self.fault_counters.merge(report.faults)
        slowdown = (
            self.fault_injector.worker_slowdown(worker_id)
            if self.fault_injector is not None
            else 1.0
        )
        ops = self.plan.ops_per_iteration
        # A straggler computes the same iteration on a slower clock:
        # its harvested throughput shrinks by the factor its iteration
        # time grows.
        tput = report.training_top_s / slowdown * 1e12
        iteration_s = ops / tput if tput > 0 else float("inf")
        return WorkerReport(
            worker_id=worker_id,
            load=load,
            training_top_s=report.training_top_s / slowdown,
            inference_top_s=report.inference_top_s,
            p99_latency_us=report.p99_latency_us,
            iteration_s=iteration_s,
            p50_latency_us=report.p50_latency_us,
        )

    def train(
        self,
        loads: Sequence[float],
        batches: int = 8,
        seed: int = 0,
        local_steps: int = 1,
        resume_from: Optional[RoundCheckpoint] = None,
    ) -> FleetReport:
        """Measure every worker at its load and compose the rounds.

        Args:
            loads: Per-worker inference load (length must equal the
                fleet size).
            batches: Measurement batches per worker simulation.
            seed: Base arrival seed (workers are decorrelated).
            local_steps: Iterations each worker accumulates gradients
                locally before a synchronization round — the standard
                lever against a communication-bound parameter server.
            resume_from: A prior round's checkpoint; workers already
                measured there are reused instead of re-simulated
                (counted ``round_restores``). The checkpoint must come
                from the same ``seed`` and ``loads``.

        Crashed workers (per the fault plan) drop out of the round; the
        survivors aggregate partially as long as ``min_workers`` of
        them remain. Every completed measurement lands in
        ``self.last_checkpoint``.
        """
        if len(loads) != self.size:
            raise ValueError(
                f"need {self.size} loads, got {len(loads)}"
            )
        if local_steps < 1:
            raise ValueError("local_steps must be positive")
        loads_key = tuple(float(load) for load in loads)
        if resume_from is not None:
            if resume_from.seed != seed or resume_from.loads != loads_key:
                raise ValueError(
                    "checkpoint was taken under different seed/loads; "
                    "resuming would mix two measurement campaigns"
                )
            if resume_from.reports:
                self.fault_counters.round_restores += 1

        workers: List[WorkerReport] = []
        crashed: List[int] = []
        for worker_id, load in enumerate(loads):
            restored = (
                resume_from.report_for(worker_id)
                if resume_from is not None
                else None
            )
            if restored is not None:
                workers.append(restored)
            else:
                try:
                    workers.append(
                        self._measure_worker(worker_id, load, batches, seed)
                    )
                except WorkerCrashError as crash:
                    crashed.append(crash.worker_id)
            self.last_checkpoint = RoundCheckpoint(
                seed=seed, loads=loads_key, reports=tuple(workers)
            )
        if len(workers) < self.min_workers:
            raise ValueError(
                f"only {len(workers)} worker(s) survived the round "
                f"(crashed: {crashed}), below min_workers={self.min_workers}"
            )

        sync = self.server.round(
            [w.iteration_s * local_steps for w in workers],
            self.model.weight_count,
            timeout_s=(
                self.round_timeout_s * local_steps
                if self.round_timeout_s is not None
                else None
            ),
            min_workers=self.min_workers,
        )
        self.fault_counters.stragglers_dropped += sync.workers_dropped
        if sync.workers_dropped > 0 or crashed:
            self.fault_counters.rounds_partial += 1

        # Only aggregated workers' samples and ops count: crashed
        # workers never delivered gradients, timed-out stragglers were
        # left behind at the barrier.
        samples_per_round = (
            sync.workers_aggregated * self.training_batch * local_steps
        )
        samples_per_s = (
            samples_per_round / sync.total_s if sync.total_s > 0 else 0.0
        )
        fleet_ops_per_round = (
            sync.workers_aggregated * self.plan.ops_per_iteration * local_steps
        )
        fleet_top_s = fleet_ops_per_round / sync.total_s / 1e12
        return FleetReport(
            workers=workers,
            round=sync,
            samples_per_s=samples_per_s,
            fleet_training_top_s=fleet_top_s,
            dedicated_top_s=self.plan.dedicated_throughput_top_s(),
            faults=self.fault_counters.snapshot(),
        )

    def run_report(self, fleet_report: FleetReport, name: str) -> RunReport:
        """Package one fleet round as the structured JSON artifact.

        The fleet's headline latency is its *worst* worker (a
        synchronous round is only as good as its slowest member);
        per-worker figures land under ``metrics``.
        """

        def _worst(values: List[float]) -> Optional[float]:
            measured = [v for v in values if v == v]  # drop NaN
            return max(measured) if measured else None

        workers = fleet_report.workers
        faults = fleet_report.faults.as_dict()
        per_worker = {
            f"worker_{w.worker_id}": {
                "load": w.load,
                "training_top_s": w.training_top_s,
                "inference_top_s": w.inference_top_s,
                "p50_latency_us": w.p50_latency_us,
                "p99_latency_us": w.p99_latency_us,
                "iteration_s": w.iteration_s,
            }
            for w in workers
        }
        return RunReport(
            name=name,
            kind="fleet",
            config={
                "size": self.size,
                "latency_class": self.latency_class,
                "training_batch": self.training_batch,
                "min_workers": self.min_workers,
            },
            latency_us={
                "p50": _worst([w.p50_latency_us for w in workers]),
                "p99": _worst([w.p99_latency_us for w in workers]),
            },
            throughput_top_s={
                "inference": sum(w.inference_top_s for w in workers),
                "training": fleet_report.fleet_training_top_s,
            },
            faults={key: float(faults[key]) for key in sorted(faults)},
            metrics={
                "samples_per_s": fleet_report.samples_per_s,
                "dedicated_top_s": fleet_report.dedicated_top_s,
                "dedicated_equivalents": fleet_report.dedicated_equivalents,
                "workers_aggregated": fleet_report.round.workers_aggregated,
                "workers": per_worker,
            },
        )
