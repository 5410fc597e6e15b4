"""Matrix multiply unit timing model with the hardware job arbiter.

The MMU is a row of ``m`` weight-stationary systolic arrays, each n×n
PEs of width ``w`` (paper Figure 3). One array pass streams up to ``n``
activation rows against an (n·w × n) weight tile per array; issue
occupies the unit for the streamed rows' cycles, and results emerge a
pipeline-drain later (fill of the n·w-deep reduction plus the 2n skew).
The unit is pipelined: a new job may start issuing while the previous
one drains — matching the functional model in :mod:`repro.hw.systolic`.

Equinox's instruction controller keeps one job queue per service
context and arbitrates *at instruction granularity*: under the hardware
priority policy it round-robins inference and training jobs while the
inference queue is shallow, and dedicates every issue slot to inference
during load spikes (paper §3.2). That fine interleaving is what lets
training stream from DRAM continuously through the tiny staging slice
even while an inference batch is executing.

Every busy cycle is attributed to Figure 8's categories: *working*
(real rows on real matrix elements), *dummy* (padding rows added by
batch formation), *other* (array/matrix dimension mismatch); idle is
derived from the accounting window.
"""

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import MMUJob
from repro.sim.engine import Simulator
from repro.sim.stats import CycleAccounting, ThroughputMeter

#: Context/queue names the arbiter knows about.
INFERENCE = "inference"
TRAINING = "training"


class _QueuedJob:
    __slots__ = ("job", "real_rows", "context", "on_done", "on_issue")

    def __init__(self, job, real_rows, context, on_done, on_issue):
        self.job = job
        self.real_rows = real_rows
        self.context = context
        self.on_done = on_done
        self.on_issue = on_issue


class MatrixMultiplyUnit:
    """Event-driven model of the MMU with per-context job queues.

    The scheduling policy (see :mod:`repro.core.scheduler`) is consulted
    at every grant; ``pressure_fn`` supplies the inference queue-size
    signal the spike guard monitors (Figure 5's "Inference Queue Size"
    wire).
    """

    def __init__(self, sim: Simulator, config: AcceleratorConfig):
        self.sim = sim
        self.config = config
        self._drain_cycles = config.pipeline_drain_cycles
        self._queues: Dict[str, Deque[_QueuedJob]] = {
            INFERENCE: deque(),
            TRAINING: deque(),
        }
        self._policy = None  # set via set_policy; None = FIFO inference first
        self._pressure_fn: Callable[[], int] = lambda: 0
        self._fault_injector = None
        self._busy = False
        self._last_granted = TRAINING  # so the first round-robin pick is inference
        # The one job in service, with the amounts its completion books.
        self._svc_context = INFERENCE
        self._svc_on_done: Optional[Callable[[], None]] = None
        self._svc_occupancy = 0.0
        self._svc_working = 0.0
        self._svc_dummy = 0.0
        self._svc_other = 0.0
        self._svc_useful_ops = 0.0
        self.accounting = CycleAccounting()
        self.throughput = ThroughputMeter()
        #: Throughput attributed per context (Figure 9's split).
        self.throughput_by_context: Dict[str, ThroughputMeter] = {}
        self.busy_by_context: Dict[str, float] = {}
        self.jobs_issued = 0
        self.busy_cycles = 0.0

    def set_policy(
        self, policy, pressure_fn: Optional[Callable[[], int]] = None
    ) -> None:
        """Attach the instruction-controller scheduling policy and the
        inference-pressure signal."""
        self._policy = policy
        if pressure_fn is not None:
            self._pressure_fn = pressure_fn

    def set_fault_injector(self, injector) -> None:
        """Attach a fault injector sampling tile/PE stalls per job."""
        self._fault_injector = injector

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------

    def queue_depth_of(self, context: str) -> int:
        return len(self._queues[context])

    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------

    def issue(
        self,
        job: MMUJob,
        real_rows: int,
        context: str,
        on_done: Optional[Callable[[], None]] = None,
        on_issue: Optional[Callable[[], None]] = None,
        queue: Optional[str] = None,
    ) -> None:
        """Enqueue a job on behalf of ``context``.

        Args:
            job: The compiled MMU job.
            real_rows: How many of ``job.rows`` carry real requests; the
                rest are batch-padding dummies (their cycles are burned
                identically but attributed to the *dummy* category).
            context: Accounting tag (``"inference"`` / ``"training"``).
            on_done: Fires when results have fully drained.
            on_issue: Fires when the job starts streaming.
            queue: Arbiter queue; defaults to ``context``. A software
                scheduler places committed training blocks in the
                inference queue because it cannot revoke them.
        """
        if not 0 <= real_rows <= job.rows:
            raise ValueError(f"real_rows {real_rows} outside 0..{job.rows}")
        target = queue or context
        if target not in self._queues:
            raise KeyError(f"unknown MMU queue {target!r}")
        self._queues[target].append(
            _QueuedJob(job, real_rows, context, on_done, on_issue)
        )
        if not self._busy:
            self.pump()

    def issue_batch(
        self,
        jobs,
        real_rows_fn: Callable[[MMUJob], int],
        context: str,
        on_done: Optional[Callable[[], None]] = None,
        on_issue: Optional[Callable[[], None]] = None,
        queue: Optional[str] = None,
    ) -> int:
        """Enqueue a tile's whole instruction stream with one pump.

        Issue timing is identical to issuing each job via
        :meth:`issue`: while the unit is busy (which it is from the
        first grant on), ``pump()`` is a no-op, so the per-job pumps of
        the scalar path do nothing but burn cycles. Arbitration still
        happens *per instruction* at every completion — the paper's
        §3.2 contract — only the redundant wake-ups are elided.

        ``on_done`` rides on the last job only and fires once, when
        that job's results have drained. That is when the whole stream
        has drained: the jobs share one FIFO queue of the one unit,
        which grants one job at a time, and the drain delay is a
        constant. ``on_issue`` fires at every job's grant. Returns the
        number of jobs enqueued.
        """
        target = queue or context
        if target not in self._queues:
            raise KeyError(f"unknown MMU queue {target!r}")
        q = self._queues[target]
        entry = None
        count = 0
        for job in jobs:
            real_rows = real_rows_fn(job)
            if not 0 <= real_rows <= job.rows:
                raise ValueError(
                    f"real_rows {real_rows} outside 0..{job.rows}"
                )
            entry = _QueuedJob(job, real_rows, context, None, on_issue)
            q.append(entry)
            count += 1
        if entry is not None:
            entry.on_done = on_done
            if not self._busy:
                self.pump()
        return count

    def pump(self) -> None:
        """Grant the next job if the unit is free and the policy allows.

        Called on job arrival, on completion, and by the front-end when
        the inference queue-size signal drops (a spike subsiding can
        unblock training grants).
        """
        if self._busy:
            return
        inf_ready = bool(self._queues[INFERENCE])
        train_ready = bool(self._queues[TRAINING])
        if not inf_ready and not train_ready:
            return
        if self._policy is None:
            choice = INFERENCE if inf_ready else TRAINING
        else:
            choice = self._policy.select_queue(
                inf_ready, train_ready, self._pressure_fn(), self._last_granted
            )
            self._policy.record_decision(choice)
        if choice is None:
            return
        self._grant(self._queues[choice].popleft())
        self._last_granted = choice

    def _grant(self, entry: _QueuedJob) -> None:
        job = entry.job
        real_frac = entry.real_rows / job.rows if job.rows else 0.0
        # Injected tile/PE stall: the job holds the unit for extra
        # cycles doing no useful work — Figure 8's "other" category.
        stall = (
            self._fault_injector.mmu_stall_cycles()
            if self._fault_injector is not None else 0.0
        )
        occupancy = job.cycles + stall
        self._svc_context = entry.context
        self._svc_on_done = entry.on_done
        self._svc_occupancy = occupancy
        self._svc_working = job.cycles * job.utilization * real_frac
        self._svc_dummy = job.cycles * job.utilization * (1.0 - real_frac)
        self._svc_other = job.cycles * (1.0 - job.utilization) + stall
        self._svc_useful_ops = 2.0 * job.macs * job.utilization * real_frac

        self._busy = True
        self.jobs_issued += 1
        if entry.on_issue is not None:
            entry.on_issue()
        # A granted job is never revoked (the arbiter commits at grant),
        # so both completion hops ride the anonymous fire-and-forget
        # lane — these are the two densest event classes in the whole
        # simulation. One job is in service at a time, so its numbers
        # live on the unit and the completion is a bound method.
        self.sim.after_call(occupancy, self._issue_complete)

    def _issue_complete(self) -> None:
        context = self._svc_context
        occupancy = self._svc_occupancy
        useful_ops = self._svc_useful_ops
        self._busy = False
        # Accounting accrues at completion so a measurement window
        # never contains cycles that have not elapsed yet.
        self.busy_cycles += occupancy
        self.busy_by_context[context] = (
            self.busy_by_context.get(context, 0.0) + occupancy
        )
        self.accounting.add("working", self._svc_working)
        self.accounting.add("dummy", self._svc_dummy)
        self.accounting.add("other", self._svc_other)
        self.throughput.record(useful_ops, self.sim.now)
        meter = self.throughput_by_context.get(context)
        if meter is None:
            meter = self.throughput_by_context[context] = ThroughputMeter()
        meter.record(useful_ops, self.sim.now)
        if self._svc_on_done is not None:
            # Results drain through the array after the last row
            # enters; the unit itself is free for the next job.
            self.sim.after_call(self._drain_cycles, self._svc_on_done)
        self.pump()

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    def breakdown(self, window_cycles: Optional[float] = None) -> dict:
        """Figure 8 cycle breakdown over the window (default: now)."""
        window = self.sim.now if window_cycles is None else window_cycles
        return self.accounting.breakdown(window)

    def measured_top_s(self, window_cycles: Optional[float] = None) -> float:
        """Sustained useful throughput in TOp/s."""
        window = self.sim.now if window_cycles is None else window_cycles
        return self.throughput.top_s(window, self.config.frequency_hz)

    def context_top_s(
        self, context: str, window_cycles: Optional[float] = None
    ) -> float:
        """Sustained throughput attributed to one context, in TOp/s."""
        meter = self.throughput_by_context.get(context)
        if meter is None:
            return 0.0
        window = self.sim.now if window_cycles is None else window_cycles
        return meter.top_s(window, self.config.frequency_hz)

    def busy_fraction(
        self, context: str, window_cycles: Optional[float] = None
    ) -> float:
        window = self.sim.now if window_cycles is None else window_cycles
        if window <= 0:
            return 0.0
        return self.busy_by_context.get(context, 0.0) / window
