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
from typing import Callable, Dict, Optional, Sequence

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import MMUJob
from repro.sim.engine import Simulator
from repro.sim.stats import CycleAccounting, ThroughputMeter

#: Context/queue names the arbiter knows about.
INFERENCE = "inference"
TRAINING = "training"


class _StreamQueue(deque):
    """One arbiter queue: issued streams in FIFO order, each the tuple
    ``(jobs, real_rows, context, on_issue, on_done)``. ``head`` indexes
    the first stream's next job, so a grant allocates nothing."""

    __slots__ = ("head",)

    def __init__(self) -> None:
        super().__init__()
        self.head = 0


class MatrixMultiplyUnit:
    """Event-driven model of the MMU with per-context job queues.

    The scheduling policy (see :mod:`repro.core.scheduler`) is consulted
    at every grant while a training job waits; ``pressure_fn`` supplies
    the inference queue-size signal the spike guard monitors (Figure 5's
    "Inference Queue Size" wire). Every policy grants a lone inference
    queue (:meth:`SchedulingPolicy.select_queue`), so the arbiter grants
    it without asking and tallies the decision itself.
    """

    def __init__(self, sim: Simulator, config: AcceleratorConfig):
        self.sim = sim
        self.config = config
        self._drain_cycles = config.pipeline_drain_cycles
        self._inference = _StreamQueue()
        self._training = _StreamQueue()
        self._queues: Dict[str, _StreamQueue] = {
            INFERENCE: self._inference,
            TRAINING: self._training,
        }
        self._policy = None  # set via set_policy; None = FIFO inference first
        self._pressure_fn: Callable[[], int] = lambda: 0
        #: The attached policy's decision tally (a private one without).
        self._decisions: Dict[str, int] = {}
        self._fault_injector = None
        self._last_granted = TRAINING  # so the first round-robin pick is inference
        # The job in service (None while the unit is free), the stream
        # it came from, its stall, and the stream's ``on_done`` if it is
        # the stream's last job.
        self._svc_job: Optional[MMUJob] = None
        self._svc_stream: tuple = ()
        self._svc_stall = 0.0
        self._svc_on_done: Optional[Callable[[], None]] = None
        self.accounting = CycleAccounting()
        self._cycles = self.accounting.cycles
        self.throughput = ThroughputMeter()
        #: Throughput attributed per context (Figure 9's split).
        self.throughput_by_context: Dict[str, ThroughputMeter] = {}
        self.jobs_issued = 0
        self.busy_cycles = 0.0

    def set_policy(
        self, policy, pressure_fn: Optional[Callable[[], int]] = None
    ) -> None:
        """Attach the instruction-controller scheduling policy and the
        inference-pressure signal."""
        self._policy = policy
        self._decisions = policy.decisions
        if pressure_fn is not None:
            self._pressure_fn = pressure_fn

    def set_fault_injector(self, injector) -> None:
        """Attach a fault injector sampling tile/PE stalls per job."""
        self._fault_injector = injector

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------

    def queue_depth_of(self, context: str) -> int:
        """Jobs waiting in one queue (the one in service excluded)."""
        queue = self._queues[context]
        return sum(len(stream[0]) for stream in queue) - queue.head

    @property
    def queue_depth(self) -> int:
        return sum(self.queue_depth_of(name) for name in self._queues)

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
        target = self._queues.get(queue or context)
        if target is None:
            raise KeyError(f"unknown MMU queue {queue or context!r}")
        target.append(((job,), real_rows, context, on_issue, on_done))
        if self._svc_job is None:
            self._advance()

    def issue_batch(
        self,
        jobs: Sequence[MMUJob],
        real_rows: int,
        context: str,
        on_done: Optional[Callable[[], None]] = None,
        on_issue: Optional[Callable[[], None]] = None,
        queue: Optional[str] = None,
    ) -> int:
        """Enqueue a tile's whole instruction stream as one queue entry.

        ``real_rows`` is the batch's real request count: each job
        carries ``min(real_rows, job.rows)`` real rows. The queue holds
        ``jobs`` itself, not a copy, so the caller must not mutate it
        while it is queued (a compiled step's job list never is).

        Issue timing is identical to issuing each job via
        :meth:`issue`: arbitration still happens *per instruction* at
        every completion — the paper's §3.2 contract — only the
        per-job queue entries and wake-ups are elided.

        ``on_done`` rides on the last job only and fires once, when
        that job's results have drained. That is when the whole stream
        has drained: the jobs share one FIFO queue of the one unit,
        which grants one job at a time, and the drain delay is a
        constant. ``on_issue`` fires at every job's grant. Returns the
        number of jobs enqueued.
        """
        if real_rows < 0:
            raise ValueError(f"real_rows {real_rows} is negative")
        target = self._queues.get(queue or context)
        if target is None:
            raise KeyError(f"unknown MMU queue {queue or context!r}")
        if not jobs:
            return 0
        target.append((jobs, real_rows, context, on_issue, on_done))
        if self._svc_job is None:
            self._advance()
        return len(jobs)

    def pump(self) -> None:
        """Grant the next job if the unit is free and the policy allows.

        Called on job arrival and by the front-end when the inference
        queue-size signal drops (a spike subsiding can unblock training
        grants); a completion grants the next job itself.
        """
        if self._svc_job is None:
            self._advance()

    def _arbitrate(self) -> Optional[_StreamQueue]:
        """The queue the policy grants while a training job waits, with
        the decision tallied; ``None`` holds the unit idle."""
        policy = self._policy
        inference_ready = bool(self._inference)
        if policy is None:
            choice = INFERENCE if inference_ready else TRAINING
        else:
            choice = policy.select_queue(
                inference_ready, True, self._pressure_fn(), self._last_granted
            )
            key = choice if choice is not None else "idle"
            decisions = self._decisions
            decisions[key] = decisions.get(key, 0) + 1
        if choice is None:
            return None
        self._last_granted = choice
        return self._queues[choice]

    def _advance(self) -> None:
        """Retire the job in service, if any, then grant the next one.

        This is every granted job's issue-completion event; ``pump``
        calls it on a free unit.
        """
        job = self._svc_job
        if job is not None:
            # Book the retiring job with plain float additions, in a
            # fixed order (DESIGN.md, "Cheap grants"). Every input was
            # checked where it entered: MMUJob fields are finite and
            # non-negative, real rows lie in 0..rows, stalls are >= 0.
            _, real_rows, context, _, _ = self._svc_stream
            stall = self._svc_stall
            now = self.sim.now
            cycles = job.cycles
            utilization = job.utilization
            occupancy = cycles + stall
            meter = self.throughput_by_context.get(context)
            if meter is None:
                meter = self._open_context(context, now)
            self.busy_cycles += occupancy
            booked = self._cycles
            useful_ops = 2.0 * job.macs * utilization
            rows = job.rows
            if real_rows >= rows > 0:
                # A full job: ``x * 1.0`` is ``x`` and its dummy share
                # adds 0.0, so both are skipped.
                booked["working"] += cycles * utilization
            else:
                real_frac = real_rows / rows if rows else 0.0
                useful_ops *= real_frac
                booked["working"] += cycles * utilization * real_frac
                booked["dummy"] += cycles * utilization * (1.0 - real_frac)
            booked["other"] += cycles * (1.0 - utilization) + stall
            total = self.throughput
            total.total_ops += useful_ops
            total.last_cycle = now
            meter.total_ops += useful_ops
            meter.last_cycle = now
            on_done = self._svc_on_done
            if on_done is not None:
                # Results drain through the array after the last row
                # enters; the unit itself is free for the next job.
                self.sim.after_call(self._drain_cycles, on_done)

        # Every policy grants a lone inference queue, so the policy and
        # the spike-guard signal are consulted only while training waits.
        if self._training:
            queue = self._arbitrate()
            if queue is None:
                self._svc_job = None
                return
        elif self._inference:
            queue = self._inference
            decisions = self._decisions
            decisions[INFERENCE] = decisions.get(INFERENCE, 0) + 1
            self._last_granted = INFERENCE
        else:
            self._svc_job = None
            return

        stream = queue[0]
        jobs, _, _, on_issue, on_done = stream
        index = queue.head
        job = jobs[index]
        index += 1
        if index < len(jobs):
            queue.head = index
            on_done = None  # rides on the stream's last job
        else:
            queue.popleft()
            queue.head = 0
        # Injected tile/PE stall: the job holds the unit for extra
        # cycles doing no useful work — Figure 8's "other" category.
        injector = self._fault_injector
        stall = injector.mmu_stall_cycles() if injector is not None else 0.0
        self._svc_job = job
        self._svc_stream = stream
        self._svc_stall = stall
        self._svc_on_done = on_done
        self.jobs_issued += 1
        if on_issue is not None:
            on_issue()
        # A granted job is never revoked (the arbiter commits at grant),
        # so its completion rides the anonymous fire-and-forget lane —
        # the densest event class in the whole simulation.
        self.sim.after_call(job.cycles + stall, self._advance)

    def _open_context(self, context: str, now: float) -> ThroughputMeter:
        """The first completion on behalf of ``context``: its meter
        starts here, and the first completion of all starts the global
        meter."""
        if self.throughput.first_cycle is None:
            self.throughput.first_cycle = now
        meter = self.throughput_by_context[context] = ThroughputMeter()
        meter.first_cycle = now
        return meter

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    def breakdown(self, window_cycles: Optional[float] = None) -> dict:
        """Figure 8 cycle breakdown over the window (default: now)."""
        window = self.sim.now if window_cycles is None else window_cycles
        return self.accounting.breakdown(window)

    def context_top_s(
        self, context: str, window_cycles: Optional[float] = None
    ) -> float:
        """Sustained throughput attributed to one context, in TOp/s."""
        meter = self.throughput_by_context.get(context)
        if meter is None:
            return 0.0
        window = self.sim.now if window_cycles is None else window_cycles
        return meter.top_s(window, self.config.frequency_hz)
