"""The Equinox accelerator facade.

Assembles the simulator, the datapath models, the compiled programs and
the front-end into one object with a load-experiment API. This is the
public entry point the examples and the evaluation harness use:

    >>> from repro.core import EquinoxAccelerator
    >>> from repro.dse import equinox_configuration
    >>> from repro.models import deepbench_lstm
    >>> eq = EquinoxAccelerator(
    ...     equinox_configuration("500us"), deepbench_lstm(),
    ...     training_model=deepbench_lstm(),
    ... )
    >>> report = eq.run(load=0.5, requests=2000)       # doctest: +SKIP
    >>> report.p99_latency_us, report.training_top_s   # doctest: +SKIP
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.batching import make_batching
from repro.core.dispatcher import (
    InferenceEngine,
    RequestDispatcher,
    TrainingEngine,
)
from repro.core.scheduler import SchedulingPolicy, make_scheduler
from repro.faults.admission import AdmissionControl
from repro.faults.counters import FaultCounters
from repro.faults.guard import SLOGuard
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.buffers import OnChipBuffer
from repro.hw.config import AcceleratorConfig
from repro.hw.dram import HBMInterface
from repro.hw.mmu import MatrixMultiplyUnit
from repro.hw.simd import SIMDUnit
from repro.models.compiler import TileCompiler
from repro.models.graph import ModelSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import RunReport, report_from_simulation
from repro.obs.spans import SpanTracer
from repro.sim.engine import Simulator
from repro.sim.stats import inf_aware_percentile
from repro.workload.loadgen import ArrivalProcess, FaultyArrivals, PoissonArrivals

#: Default batch-formation timeout as a multiple of the service time —
#: the paper's Figure 11 sweep settles on 2×.
DEFAULT_BATCH_TIMEOUT_X = 2.0

#: Default spike-guard threshold in batches of backlog.
DEFAULT_QUEUE_THRESHOLD_BATCHES = 2

#: Default SLO-guard degradation threshold as a multiple of the spike
#: guard's queue threshold: the guard engages only for backlogs the
#: instruction-level spike guard alone is failing to drain.
DEFAULT_DEGRADE_THRESHOLD_X = 2


@dataclass
class SimulationReport:
    """Everything one load experiment measured."""

    config_name: str
    load: float
    duration_cycles: float
    frequency_hz: float
    requests_submitted: int
    requests_completed: int
    batches_completed: int
    incomplete_batches: int
    p99_latency_us: float
    mean_latency_us: float
    max_latency_us: float
    inference_top_s: float
    training_top_s: float
    training_iterations: int
    cycle_breakdown: Dict[str, float] = field(default_factory=dict)
    dram_gb_s: float = 0.0
    dram_utilization: float = 0.0
    events_processed: int = 0
    #: Requests shed by the bounded admission queue.
    rejected_requests: int = 0
    #: Requests abandoned after exhausting their deadline budget.
    request_timeouts: int = 0
    #: Fault/recovery counters accumulated over the run (all zero for a
    #: fault-free experiment).
    faults: FaultCounters = field(default_factory=FaultCounters)
    #: Median request latency (run artifacts carry p50 alongside p99).
    p50_latency_us: float = math.nan

    @property
    def duration_s(self) -> float:
        return self.duration_cycles / self.frequency_hz

    def meets_target(self, target_us: float) -> bool:
        """Whether the p99 latency satisfies the service-level goal.

        A run that was offered traffic but completed nothing reports a
        p99 of ``inf`` (see :meth:`EquinoxAccelerator._report`), so a
        fully-failed run can never vacuously pass the SLO.
        """
        return self.p99_latency_us <= target_us


class EquinoxAccelerator:
    """One Equinox instance hosting an inference service and optionally
    a piggybacked training service.

    Args:
        config: The design point (from :func:`repro.dse.table1
            .equinox_configuration` or hand-built).
        inference_model: Installed inference service's model.
        training_model: Installed training service's model, or None for
            an inference-only accelerator.
        scheduler: ``"priority"`` (Equinox), ``"fair"``,
            ``"inference_only"`` or ``"software"``.
        batching: ``"adaptive"`` (Equinox) or ``"static"``.
        batch_timeout_x: Adaptive formation timeout as a multiple of
            the batch service time (installation-time constant).
        queue_threshold: Spike-guard threshold in *requests*; defaults
            to two batches' worth.
        training_batch: Samples per training iteration (paper: 128).
        chunk_us: Job aggregation granularity for the compiler.
        max_inflight_batches: Inference batches overlapped in the
            datapath (double-buffered activation banks).
        decision_latency_us: Software-scheduler turnaround.
        fault_plan: Seeded fault-injection plan
            (:class:`repro.faults.FaultPlan`); ``None`` disables the
            fault subsystem entirely (byte-identical to the historical
            behaviour).
        admission: Overload policy for the request queue
            (:class:`repro.faults.AdmissionControl`): bounded admission
            with shedding plus request deadline timeouts with
            retry/backoff. ``None`` keeps the unbounded queue.
        degrade_threshold: Inference backlog (requests) at which the
            SLO guard degrades gracefully — preempting training and
            shrinking adaptive batches until the backlog drains.
            Defaults to twice the spike-guard threshold. The guard is
            installed whenever a fault plan or admission control is
            present.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        inference_model: ModelSpec,
        training_model: Optional[ModelSpec] = None,
        scheduler: str = "priority",
        batching: str = "adaptive",
        batch_timeout_x: float = DEFAULT_BATCH_TIMEOUT_X,
        queue_threshold: Optional[int] = None,
        training_batch: int = 128,
        chunk_us: float = 2.0,
        max_inflight_batches: int = 2,
        decision_latency_us: float = 10.0,
        software_conservative: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        admission: Optional[AdmissionControl] = None,
        degrade_threshold: Optional[int] = None,
    ):
        self.config = config
        self.inference_model = inference_model
        self.training_model = training_model
        self.fault_plan = fault_plan
        self.admission = admission
        self.fault_counters = FaultCounters()

        self.sim = Simulator()
        # Observability: one metrics namespace + span tracer per
        # accelerator; every collector below registers into it.
        self.obs = MetricsRegistry()
        self.spans = SpanTracer(registry=self.obs)
        self.mmu = MatrixMultiplyUnit(self.sim, config)
        self.simd = SIMDUnit(self.sim, config)
        self.hbm = HBMInterface(self.sim, config)
        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(fault_plan, self.fault_counters)
            self.hbm.set_fault_injector(self.fault_injector)
            self.mmu.set_fault_injector(self.fault_injector)
        self.weight_buffer = OnChipBuffer("weight", config.sram.weight_bytes)
        self.activation_buffer = OnChipBuffer(
            "activation", config.sram.activation_bytes
        )

        compiler = TileCompiler(config, chunk_us)
        self.inference_program = compiler.compile_inference(inference_model)
        self.batch_slots = self.inference_program.rows

        # Install the inference service: weights must be SRAM-resident.
        # Each service reserves exclusive buffer space (paper §3.2); an
        # oversubscribed buffer raises BufferCapacityError.
        operand_bytes = config.encoding_info.bytes_per_operand
        self.weight_buffer.allocate(
            "inference", inference_model.weight_bytes(operand_bytes)
        )
        self.activation_buffer.allocate(
            "inference",
            min(
                config.sram.activation_bytes * 0.5,
                2.0 * self.batch_slots
                * max(l.k + l.n_out for l in inference_model.layers),
            ),
        )

        if training_model is not None and scheduler == "inference_only":
            raise ValueError(
                "cannot install a training service under inference_only "
                "scheduling; pass training_model=None instead"
            )
        if training_model is None:
            scheduler = "inference_only"

        service_cycles = self.batch_service_cycles()
        if queue_threshold is None:
            queue_threshold = DEFAULT_QUEUE_THRESHOLD_BATCHES * self.batch_slots
        self.queue_threshold = queue_threshold
        self.scheduler: SchedulingPolicy = make_scheduler(
            scheduler,
            queue_threshold=queue_threshold,
            decision_latency_cycles=config.us_to_cycles(decision_latency_us),
            conservative=software_conservative,
        )
        self.batching = make_batching(
            batching,
            slots=self.batch_slots,
            timeout_cycles=batch_timeout_x * service_cycles,
        )

        self.engine = InferenceEngine(
            self.sim, config, self.mmu, self.simd,
            self.inference_program, self.scheduler,
            max_inflight=max_inflight_batches,
            spans=self.spans,
        )
        self.dispatcher = RequestDispatcher(
            self.sim, self.batching, on_batch=self.engine.enqueue,
            admission=admission, counters=self.fault_counters,
            spans=self.spans,
        )
        # Wire the arbiter to the policy and the queue-size signal
        # (Figure 5's "Inference Queue Size" wire into the controller).
        self.mmu.set_policy(self.scheduler, self._inference_backlog)

        # The SLO guard rides along whenever the fault subsystem is in
        # play: it samples the backlog once per batch service time and
        # degrades gracefully (preempt training, shrink batches) when a
        # fault is piling work up faster than the datapath drains it.
        self.slo_guard: Optional[SLOGuard] = None
        if fault_plan is not None or admission is not None:
            if degrade_threshold is None:
                degrade_threshold = (
                    DEFAULT_DEGRADE_THRESHOLD_X * self.queue_threshold
                )
            self.slo_guard = SLOGuard(
                self.sim,
                self._inference_backlog,
                degrade_threshold=degrade_threshold,
                check_interval_cycles=max(service_cycles, 1.0),
                counters=self.fault_counters,
                on_degrade=self._enter_degraded,
                on_recover=self._exit_degraded,
            )

        self.training_engine: Optional[TrainingEngine] = None
        self.training_program = None
        if training_model is not None:
            self.training_program = compiler.compile_training(
                training_model,
                batch=training_batch,
                max_stream_bytes=config.staging_bytes / 2.0,
            )
            # Training space-shares a sliver of SRAM for staging only.
            self.weight_buffer.allocate("training", config.staging_bytes * 0.75)
            self.activation_buffer.allocate(
                "training", config.staging_bytes * 0.25
            )
            self.training_engine = TrainingEngine(
                self.sim, config, self.mmu, self.simd, self.hbm,
                self.training_program, self.scheduler,
                inference_queue_size=self._inference_backlog,
                spans=self.spans,
            )
            self.dispatcher.on_queue_decrease = self.training_engine.poke
            self.engine.on_batch_complete = self.training_engine.poke

        # Migrate the scattered collectors into the registry as deferred
        # sources: their public APIs are unchanged, their values appear
        # under stable dotted prefixes in ``obs.snapshot()`` and every
        # artifact.
        self.obs.register_source(
            "inference.latency", self.engine.latency.metrics
        )
        self.obs.register_source("mmu.cycles", self.mmu.accounting.metrics)
        self.obs.register_source(
            "mmu.throughput", self.mmu.throughput.metrics
        )
        self.obs.register_source("dispatcher", self.dispatcher.metrics)
        self.obs.register_source("scheduler", self.scheduler.metrics)
        self.obs.register_source("faults", self.fault_counters.as_dict)
        if self.training_engine is not None:
            self.obs.register_source(
                "training",
                lambda: {
                    "iterations": float(
                        self.training_engine.iterations_completed
                    )
                },
            )

    # ------------------------------------------------------------------
    # Analytic service characteristics
    # ------------------------------------------------------------------

    def _inference_backlog(self) -> int:
        """The spike-guard signal: requests waiting to form plus real
        requests in batches that have not started executing."""
        return self.dispatcher.queue_size + self.engine.backlog_requests

    def _enter_degraded(self) -> None:
        """SLO-guard transition: preempt training, shrink batches."""
        self.scheduler.set_degraded(True)
        self.batching.set_degraded(True)

    def _exit_degraded(self) -> None:
        self.scheduler.set_degraded(False)
        self.batching.set_degraded(False)
        # Training grants are legal again; wake the pipeline (the MMU
        # only re-arbitrates on job arrival/completion).
        if self.training_engine is not None:
            self.training_engine.poke()
        self.mmu.pump()

    def batch_service_cycles(self) -> float:
        """Unloaded service time of one batch: the serial dependency
        chain of MMU occupancy, pipeline drain and SIMD tails."""
        drain = self.config.pipeline_drain_cycles
        return sum(
            step.mmu_cycles + drain + step.simd.cycles
            for step in self.inference_program.steps
        )

    def batch_service_us(self) -> float:
        return self.config.cycles_to_us(self.batch_service_cycles())

    def capacity_requests_per_cycle(self) -> float:
        """Saturation request rate: the MMU occupancy bound."""
        return self.batch_slots / self.inference_program.total_mmu_cycles

    def capacity_requests_per_s(self) -> float:
        return self.capacity_requests_per_cycle() * self.config.frequency_hz

    # ------------------------------------------------------------------
    # Load experiments
    # ------------------------------------------------------------------

    def run(
        self,
        load: float,
        requests: int = 0,
        seed: int = 0,
        arrivals: Optional[ArrivalProcess] = None,
        max_events: int = 50_000_000,
    ) -> SimulationReport:
        """Drive the accelerator at an offered load and measure.

        Args:
            load: Offered load as a fraction of the saturation request
                rate (the paper's x-axis in Figures 8, 9, 11).
            requests: Inference requests to measure over; defaults to
                ~40 batches (min 2000 requests).
            seed: Arrival-process seed.
            arrivals: Custom arrival process; default Poisson at
                ``load × capacity``.
            max_events: Hard safety stop for the event loop.
        """
        if not load > 0:
            raise ValueError(f"load must be positive, got {load}")
        if requests <= 0:
            requests = max(2000, 40 * self.batch_slots)
        if arrivals is None:
            rate = load * self.capacity_requests_per_cycle()
            arrivals = PoissonArrivals(rate, seed=seed)
        if self.fault_plan is not None and self.fault_plan.requests.enabled:
            # Front-end network faults: drops and delays, sampled from
            # the plan's own substream so the lossy trace is exactly
            # reproducible for a given (plan, seed) pair.
            arrivals = FaultyArrivals(
                arrivals, self.fault_plan, self.fault_counters
            )

        if self.training_engine is not None and not self.training_engine._started:
            self.training_engine.start()

        target = self.engine.requests_completed + requests
        stop_submitting = [False]
        # Admission runs one block ahead of the clock: one batched
        # next_gaps() draw pre-schedules a run of arrivals on the
        # anonymous lane, and the block's last arrival draws the next
        # block. Arrival times are the same prefix sums the scalar
        # one-ahead loop produced, from the identical RNG stream (each
        # arrival still submits first, then its successor's gap is
        # already drawn — the stream order the scalar loop established).
        block = 32

        def _submit() -> None:
            if stop_submitting[0]:
                return
            self.dispatcher.submit()

        def _tail() -> None:
            if stop_submitting[0]:
                return
            self.dispatcher.submit()
            _admit_block()

        def _admit_block() -> None:
            gaps = arrivals.next_gaps(block)
            t = self.sim.now
            for gap in gaps[:-1]:
                t += gap
                self.sim.at_call(t, _submit)
            self.sim.at_call(t + gaps[-1], _tail)

        _admit_block()

        start_events = self.sim.events_processed
        # Slice the run so the completion condition is re-checked about
        # once per batch service time (the loop overshoots by at most
        # one slice of background training work).
        slice_cycles = max(self.batch_service_cycles(), 1000.0)
        while self.engine.requests_completed < target:
            if self.sim.events_processed - start_events > max_events:
                raise RuntimeError(
                    "simulation exceeded its event budget; the offered "
                    "load may be far beyond saturation"
                )
            if self.sim.peek() is None:
                raise RuntimeError("simulation drained before completing")
            self.sim.run(
                until=self.sim.now + slice_cycles,
                max_events=max_events,
            )
        stop_submitting[0] = True
        self.dispatcher.flush()

        return self._report(load)

    def run_profile(
        self,
        loads: "list[float]",
        dwell_s: float,
        seed: int = 0,
        max_events: int = 50_000_000,
    ) -> "list[SimulationReport]":
        """Drive a time-varying load profile in one continuous run.

        Unlike :meth:`run`, which measures one steady load with a fresh
        accelerator, this replays a profile (e.g. a diurnal swing or a
        spike) against *persistent* state: queues, in-flight batches and
        the training pipeline carry over between buckets, so guard
        dynamics at load transitions are visible. One report is
        returned per bucket, measured over that bucket's window only.

        Args:
            loads: Offered load fraction per bucket (0 = no arrivals).
            dwell_s: Wall-clock duration of each bucket.
            seed: Arrival randomness seed.
            max_events: Safety stop across the whole profile.
        """
        if not loads:
            raise ValueError("profile needs at least one bucket")
        if dwell_s <= 0:
            raise ValueError("dwell must be positive")
        if self.training_engine is not None and not self.training_engine._started:
            self.training_engine.start()

        dwell_cycles = self.config.seconds_to_cycles(dwell_s)
        capacity = self.capacity_requests_per_cycle()
        rng_arrivals = PoissonArrivals(max(capacity, 1e-12), seed=seed)
        start_events = self.sim.events_processed
        reports: "list[SimulationReport]" = []
        current_load = [0.0]
        arrival_event = [None]

        def _arrive() -> None:
            if current_load[0] <= 0:
                arrival_event[0] = None
                return
            self.dispatcher.submit()
            # Thin the unit-rate Poisson stream to the bucket's load.
            gap = rng_arrivals.next_gap() / current_load[0]
            arrival_event[0] = self.sim.after(gap, _arrive)

        class _Snapshot:
            def __init__(snap, outer):
                snap.now = outer.sim.now
                snap.completed = outer.engine.requests_completed
                snap.submitted = outer.dispatcher.requests_submitted
                snap.batches = outer.engine.batches_completed
                snap.incomplete = outer.dispatcher.incomplete_batches
                snap.latency_count = outer.engine.latency.count
                snap.inf_ops = outer.mmu.throughput_by_context.get("inference")
                snap.inf_total = snap.inf_ops.total_ops if snap.inf_ops else 0.0
                trn = outer.mmu.throughput_by_context.get("training")
                snap.train_total = trn.total_ops if trn else 0.0
                snap.iterations = (
                    outer.training_engine.iterations_completed
                    if outer.training_engine else 0
                )

        for load in loads:
            before = _Snapshot(self)
            current_load[0] = load
            if load > 0 and arrival_event[0] is None:
                arrival_event[0] = self.sim.after(
                    rng_arrivals.next_gap() / load, _arrive
                )
            self.sim.run(until=self.sim.now + dwell_cycles)
            if self.sim.events_processed - start_events > max_events:
                raise RuntimeError("profile exceeded its event budget")

            window = self.sim.now - before.now
            latencies = self.engine.latency.samples_since(before.latency_count)
            no_sample = self._no_sample_latency_us(
                self.dispatcher.requests_submitted - before.submitted
            )
            if self.slo_guard is not None:
                self.slo_guard.flush()
            inf_meter = self.mmu.throughput_by_context.get("inference")
            inf_total = inf_meter.total_ops if inf_meter else 0.0
            trn_meter = self.mmu.throughput_by_context.get("training")
            train_total = trn_meter.total_ops if trn_meter else 0.0
            to_top_s = self.config.frequency_hz / 1e12 / max(window, 1e-9)
            reports.append(
                SimulationReport(
                    config_name=self.config.name,
                    load=load,
                    duration_cycles=window,
                    frequency_hz=self.config.frequency_hz,
                    requests_submitted=(
                        self.dispatcher.requests_submitted - before.submitted
                    ),
                    requests_completed=(
                        self.engine.requests_completed - before.completed
                    ),
                    batches_completed=(
                        self.engine.batches_completed - before.batches
                    ),
                    incomplete_batches=(
                        self.dispatcher.incomplete_batches - before.incomplete
                    ),
                    p50_latency_us=(
                        self.config.cycles_to_us(
                            inf_aware_percentile(latencies, 50)
                        )
                        if latencies else no_sample
                    ),
                    p99_latency_us=(
                        self.config.cycles_to_us(
                            inf_aware_percentile(latencies, 99)
                        )
                        if latencies else no_sample
                    ),
                    mean_latency_us=(
                        self.config.cycles_to_us(float(np.mean(latencies)))
                        if latencies else no_sample
                    ),
                    max_latency_us=(
                        self.config.cycles_to_us(float(np.max(latencies)))
                        if latencies else no_sample
                    ),
                    inference_top_s=(inf_total - before.inf_total) * to_top_s,
                    training_top_s=(train_total - before.train_total) * to_top_s,
                    training_iterations=(
                        (self.training_engine.iterations_completed
                         if self.training_engine else 0) - before.iterations
                    ),
                    events_processed=self.sim.events_processed,
                    rejected_requests=self.fault_counters.rejected_requests,
                    request_timeouts=self.fault_counters.request_timeouts,
                    faults=self.fault_counters.snapshot(),
                )
            )
        return reports

    @staticmethod
    def _no_sample_latency_us(submitted: int) -> float:
        """Latency placeholder when a window recorded no completions.

        Offered traffic with zero completions is a *failed* run — its
        tail latency is unbounded, so report ``inf`` (``meets_target``
        can then never vacuously pass). No traffic at all is merely
        unmeasured: ``nan``.
        """
        return math.inf if submitted > 0 else math.nan

    def _report(self, load: float) -> SimulationReport:
        window = self.sim.now
        has_latency = self.engine.latency.count > 0
        no_sample = self._no_sample_latency_us(
            self.dispatcher.requests_submitted
        )
        if self.slo_guard is not None:
            self.slo_guard.flush()
        training_iters = (
            self.training_engine.iterations_completed
            if self.training_engine is not None else 0
        )
        return SimulationReport(
            config_name=self.config.name,
            load=load,
            duration_cycles=window,
            frequency_hz=self.config.frequency_hz,
            requests_submitted=self.dispatcher.requests_submitted,
            requests_completed=self.engine.requests_completed,
            batches_completed=self.engine.batches_completed,
            incomplete_batches=self.dispatcher.incomplete_batches,
            p50_latency_us=(
                self.config.cycles_to_us(self.engine.latency.percentile(50.0))
                if has_latency else no_sample
            ),
            p99_latency_us=(
                self.config.cycles_to_us(self.engine.latency.p99())
                if has_latency else no_sample
            ),
            mean_latency_us=(
                self.config.cycles_to_us(self.engine.latency.mean())
                if has_latency else no_sample
            ),
            max_latency_us=(
                self.config.cycles_to_us(self.engine.latency.max())
                if has_latency else no_sample
            ),
            inference_top_s=self.mmu.context_top_s("inference", window),
            training_top_s=self.mmu.context_top_s("training", window),
            training_iterations=training_iters,
            cycle_breakdown=self.mmu.breakdown(window) if window > 0 else {},
            dram_gb_s=self.hbm.achieved_gb_s(window),
            dram_utilization=self.hbm.utilization(window),
            events_processed=self.sim.events_processed,
            rejected_requests=self.fault_counters.rejected_requests,
            request_timeouts=self.fault_counters.request_timeouts,
            faults=self.fault_counters.snapshot(),
        )

    # ------------------------------------------------------------------
    # Run artifacts
    # ------------------------------------------------------------------

    def run_report(
        self, sim_report: SimulationReport, name: str, kind: str = "accelerator"
    ) -> RunReport:
        """Package one measured run as the structured JSON artifact.

        Bundles the :class:`SimulationReport` headline numbers with the
        full metrics-registry snapshot and the span aggregates. The
        result serializes byte-identically for identically seeded runs.
        """
        return report_from_simulation(
            name,
            sim_report,
            kind=kind,
            config={
                "scheduler": type(self.scheduler).__name__,
                "batch_slots": self.batch_slots,
                "queue_threshold": self.queue_threshold,
            },
            metrics=self.obs.snapshot(),
            spans=self.spans.summary(),
        )
