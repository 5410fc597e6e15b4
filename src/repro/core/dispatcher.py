"""Request and instruction dispatchers (paper Figure 5).

:class:`RequestDispatcher` implements the top half of the front-end:
the inference request queue, the batch formation buffer with its
batching policy, and the queue-size signal the spike guard consumes.

:class:`InferenceEngine` and :class:`TrainingEngine` together implement
the instruction dispatcher: they walk compiled programs step by step,
handing MMU jobs to the arbiter's per-context queues and SIMD/DRAM work
to those units. Training's operand streams pass through the staging
slice of on-chip SRAM, whose small size (< 2 % of capacity, paper §2.2)
bounds how far the DRAM prefetch can run ahead of the MMU; the
instruction-granular round-robin of the hardware scheduler is what
keeps that stream flowing even while an inference batch executes.
"""

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.program_verifier import raise_on_errors, verify_program
from repro.core.batching import BatchingPolicy
from repro.core.requests import Batch, InferenceRequest, TrainingIterationRecord
from repro.core.scheduler import SchedulingPolicy
from repro.faults.admission import AdmissionControl
from repro.faults.counters import FaultCounters
from repro.hw.config import AcceleratorConfig
from repro.hw.dram import HBMInterface
from repro.hw.isa import Program
from repro.hw.mmu import MatrixMultiplyUnit
from repro.hw.simd import SIMDUnit
from repro.obs.spans import SpanTracer
from repro.sim.engine import Event, Simulator
from repro.sim.stats import LatencyStats

#: SIMD-unit queue priorities (the vector unit is far from saturated,
#: so a simple two-level priority suffices there).
SIMD_INFERENCE_PRIORITY = 0
SIMD_TRAINING_PRIORITY = 1

#: Inference batches overlapped in the datapath: the two double-buffered
#: activation banks, fixed at installation time (paper §3.2). The fleet
#: chip servers (``repro.serve.router``) model the same two slots.
MAX_INFLIGHT_BATCHES = 2


class RequestDispatcher:
    """Request queue + batch formation buffer for the inference service.

    With an :class:`AdmissionControl` attached, the buffer is bounded —
    an arrival finding it full is *shed* (counted, marked
    ``rejected``, never batched) — and queued requests carry a deadline:
    one that waits too long is pulled out and either re-admitted with
    exponential backoff (up to the retry budget; its latency clock keeps
    running from the original arrival) or abandoned as timed out. With
    no admission control (the default) behaviour is exactly the
    historical unbounded queue.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: BatchingPolicy,
        on_batch: Callable[[Batch], None],
        admission: Optional[AdmissionControl] = None,
        counters: Optional[FaultCounters] = None,
        spans: Optional[SpanTracer] = None,
    ):
        self.sim = sim
        self.policy = policy
        self.on_batch = on_batch
        self.admission = admission
        self.counters = counters if counters is not None else FaultCounters()
        self.spans = spans
        self._buffer: Deque[InferenceRequest] = deque()
        self._deadline_event: Optional[Event] = None
        self._timeout_events: Dict[int, Event] = {}
        #: Deadline-expired requests waiting out their backoff before
        #: re-admission. Tracked so ``flush`` can fold them back in.
        self._retry_events: Dict[int, Tuple[Event, InferenceRequest]] = {}
        self._next_batch_id = 0
        self._next_request_id = 0
        self.batches_formed = 0
        self.incomplete_batches = 0
        self.requests_submitted = 0
        #: Fires whenever the formation buffer shrinks (spike subsides).
        self.on_queue_decrease: Optional[Callable[[], None]] = None
        #: Fires whenever a request enters the formation buffer — the
        #: pull path (``PullBatching``) wakes its chip server here, so
        #: a retry re-admission on an idle chip is served immediately
        #: instead of waiting for the next completion to pump.
        self.on_queue_increase: Optional[Callable[[], None]] = None

    @property
    def queue_size(self) -> int:
        """Requests waiting in the formation buffer — the signal the
        instruction controller's spike guard monitors."""
        return len(self._buffer)

    @property
    def pending_retries(self) -> int:
        """Deadline-expired requests waiting out their backoff."""
        return len(self._retry_events)

    @property
    def rejected_requests(self) -> int:
        """Requests shed by the bounded admission queue."""
        return self.counters.rejected_requests

    @property
    def request_timeouts(self) -> int:
        """Requests abandoned after exhausting their deadline budget."""
        return self.counters.request_timeouts

    @property
    def request_retries(self) -> int:
        """Deadline-expired requests re-admitted with backoff."""
        return self.counters.request_retries

    def submit(self, tenant: Optional[str] = None) -> InferenceRequest:
        """A client request arrives now (possibly to be shed)."""
        request = InferenceRequest(
            request_id=self._next_request_id,
            arrival_cycle=self.sim.now,
            tenant=tenant,
        )
        self._next_request_id += 1
        self.requests_submitted += 1
        self._admit(request)
        return request

    def inject(self, request: InferenceRequest) -> None:
        """Admit an externally created request (fleet-router path).

        The caller owns request-id uniqueness across dispatchers — the
        local id cursor is advanced past the injected id so locally
        created requests can never collide with it.
        """
        self.requests_submitted += 1
        if self._next_request_id <= request.request_id:
            self._next_request_id = request.request_id + 1
        self._admit(request)

    # ------------------------------------------------------------------
    # Buffer hooks — the single-tenant deque here; FairShareDispatcher
    # overrides these five to run per-tenant queues under the identical
    # admission/timeout/formation machinery.
    # ------------------------------------------------------------------

    def _should_shed(self, request: InferenceRequest) -> bool:
        admission = self.admission
        return (
            admission is not None
            and admission.bounds_queue
            and self.queue_size >= admission.max_queue_requests
        )

    def _append(self, request: InferenceRequest) -> None:
        self._buffer.append(request)

    def _discard(self, request: InferenceRequest) -> bool:
        try:
            self._buffer.remove(request)
        except ValueError:
            return False
        return True

    def _take(self, slots: int) -> List[InferenceRequest]:
        taken: List[InferenceRequest] = []
        while self._buffer and len(taken) < slots:
            taken.append(self._buffer.popleft())
        return taken

    def _oldest_arrival(self) -> Optional[float]:
        if not self._buffer:
            return None
        return self._buffer[0].arrival_cycle

    # ------------------------------------------------------------------
    # Admission / timeout / formation machinery (hook-driven)
    # ------------------------------------------------------------------

    def _admit(self, request: InferenceRequest) -> None:
        if self._should_shed(request):
            # Load shedding: better one explicit rejection now than one
            # more request whose latency diverges in an unbounded queue.
            request.rejected = True
            self.counters.rejected_requests += 1
            self._on_shed(request)
            return
        self._append(request)
        deadline = self._deadline_for(request)
        if deadline is not None:
            self._timeout_events[request.request_id] = self.sim.after(
                deadline, lambda: self._on_request_timeout(request)
            )
        self._evaluate()
        if self.on_queue_increase is not None:
            self.on_queue_increase()

    def _deadline_for(self, request: InferenceRequest) -> Optional[float]:
        """Queue deadline for this request; ``None`` = never times out.
        FairShareDispatcher overrides with per-tenant deadlines."""
        admission = self.admission
        if admission is not None and admission.has_deadline:
            return admission.deadline_cycles
        return None

    def _on_shed(self, request: InferenceRequest) -> None:
        """Hook for per-tenant shed accounting; the base keeps none."""

    def _on_timed_out(self, request: InferenceRequest) -> None:
        """Hook: ``request`` exhausted its deadline budget."""

    def _on_request_timeout(self, request: InferenceRequest) -> None:
        self._timeout_events.pop(request.request_id, None)
        if request.batched_cycle is not None:
            return  # formed into a batch before the deadline fired
        if not self._discard(request):
            return
        admission = self.admission
        max_retries = 0 if admission is None else admission.max_retries
        if request.retries < max_retries:
            assert admission is not None
            # Re-admit with bounded exponential backoff; the latency
            # clock keeps running from the original arrival. The pending
            # re-admission is tracked: an untracked event here leaked
            # the request past flush() (it sat in the sim heap, invisible
            # to it).
            request.retries += 1
            self.counters.request_retries += 1
            event = self.sim.after(
                admission.retry_delay(request.retries),
                lambda: self._readmit(request),
            )
            self._retry_events[request.request_id] = (event, request)
        else:
            request.timed_out = True
            self.counters.request_timeouts += 1
            self._on_timed_out(request)
        self._arm_deadline()
        if self.on_queue_decrease is not None:
            self.on_queue_decrease()

    def _readmit(self, request: InferenceRequest) -> None:
        self._retry_events.pop(request.request_id, None)
        self._admit(request)

    def _evaluate(self) -> None:
        while self.queue_size:
            oldest = self._oldest_arrival()
            assert oldest is not None
            oldest_wait = self.sim.now - oldest
            if not self.policy.should_issue(self.queue_size, oldest_wait):
                break
            self._form()
        self._arm_deadline()

    def _form(self) -> Batch:
        slots = self.policy.batch_slots
        taken = self._take(slots)
        batch = Batch(
            batch_id=self._next_batch_id,
            requests=taken,
            slots=slots,
            formed_cycle=self.sim.now,
        )
        self._next_batch_id += 1
        self.batches_formed += 1
        if batch.is_padded:
            self.incomplete_batches += 1
        for request in taken:
            request.batched_cycle = self.sim.now
            self._note_batched(request)
            if self.spans is not None:
                # Retroactive: the request record already stamped both
                # endpoints of its formation wait.
                self.spans.record(
                    "request.queue", request.arrival_cycle, self.sim.now
                )
            timeout = self._timeout_events.pop(request.request_id, None)
            if timeout is not None:
                timeout.cancel()
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
        self.on_batch(batch)
        if self.on_queue_decrease is not None:
            self.on_queue_decrease()
        return batch

    def _note_batched(self, request: InferenceRequest) -> None:
        """Hook: ``request`` was just formed into a batch."""

    def form_one(self) -> Optional[Batch]:
        """Form one batch on demand, bypassing the batching policy.

        The pull path (:class:`repro.core.batching.PullBatching`): a
        chip server calls this exactly when a service slot frees up, so
        requests stay in the bounded formation buffer — where admission
        and fair-share still see them — until the datapath can actually
        take them. Returns the formed batch (also delivered through
        ``on_batch``), or ``None`` when the buffer is empty.
        """
        if not self.queue_size:
            return None
        return self._form()

    def drain(self) -> List[InferenceRequest]:
        """Evacuate every live request without forming batches.

        Chip-failure failover: the router pulls a dead chip's queued
        requests (including those waiting out a retry backoff) and
        re-admits them elsewhere. All armed deadline/timeout/retry
        events are cancelled; tallies are untouched — the requests are
        still live. Returned in request-id order for determinism.
        """
        drained: Dict[int, InferenceRequest] = {}
        while self.queue_size:
            for request in self._take(self.queue_size):
                drained[request.request_id] = request
        for event, request in self._retry_events.values():
            event.cancel()
            drained[request.request_id] = request
        self._retry_events.clear()
        for event in self._timeout_events.values():
            event.cancel()
        self._timeout_events.clear()
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
        return [drained[request_id] for request_id in sorted(drained)]

    def _arm_deadline(self) -> None:
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None
        oldest = self._oldest_arrival()
        if oldest is None:
            return
        deadline = self.policy.deadline_cycles(oldest)
        if deadline is None:
            return
        self._deadline_event = self.sim.at(
            max(deadline, self.sim.now), self._on_deadline
        )

    def _on_deadline(self) -> None:
        self._deadline_event = None
        if self.queue_size:
            self._form()
        self._arm_deadline()

    def flush(self) -> None:
        """Force out whatever is buffered (end-of-run drain).

        Requests waiting out a retry backoff are folded back in first
        (in request-id order): they are still live, and draining the
        buffer without them silently lost them — never completed, never
        counted timed out, breaking the submitted = completed + shed +
        timed-out accounting identity.
        """
        while self._retry_events:
            request_id = min(self._retry_events)
            event, request = self._retry_events.pop(request_id)
            event.cancel()
            self._admit(request)
        while self.queue_size:
            self._form()

    def metrics(self) -> Dict[str, float]:
        """Deferred-source view for a ``MetricsRegistry``."""
        return {
            "queue_size": float(self.queue_size),
            "requests_submitted": float(self.requests_submitted),
            "batches_formed": float(self.batches_formed),
            "incomplete_batches": float(self.incomplete_batches),
            "rejected_requests": float(self.rejected_requests),
            "request_timeouts": float(self.request_timeouts),
            "request_retries": float(self.request_retries),
            "pending_retries": float(self.pending_retries),
        }


@dataclass(frozen=True)
class TenantShare:
    """One tenant's slice of a fair-share dispatcher.

    Attributes:
        name: Tenant identity; requests carry it end to end.
        weight: Fair-share weight — batch slots are granted in
            proportion to weights when every tenant has backlog
            (weighted deficit round-robin).
        max_queue_requests: Per-tenant admission bound; ``None`` falls
            back to the dispatcher's :class:`AdmissionControl` bound.
            Each tenant's queue is bounded independently, so one
            tenant's flash crowd sheds its own arrivals and never
            consumes another tenant's admission budget.
        deadline_cycles: Per-tenant queue deadline; ``None`` falls back
            to the dispatcher's :class:`AdmissionControl` deadline.
    """

    name: str
    weight: float = 1.0
    max_queue_requests: Optional[int] = None
    deadline_cycles: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.max_queue_requests is not None and self.max_queue_requests < 1:
            raise ValueError(
                f"max_queue_requests must be >= 1, got {self.max_queue_requests}"
            )
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise ValueError(
                f"deadline_cycles must be positive, got {self.deadline_cycles}"
            )


class FairShareDispatcher(RequestDispatcher):
    """Multi-tenant request dispatcher: one bounded queue per tenant,
    weighted deficit round-robin (WDRR) batch formation.

    Slots are filled by cycling tenants in registration order; a
    tenant with backlog earns ``weight`` deficit credit once per visit
    and spends one credit per slot, so over any backlogged interval
    tenant *i* receives ``w_i / Σw`` of the slots regardless of how
    aggressively other tenants submit. The round runs across batches:
    a batch that fills mid-visit leaves the turn and the unspent credit
    where they are, and the next batch resumes that visit. A tenant
    whose queue drains forfeits its credit (standard DRR reset) —
    weights bound *shares under contention*, not reservations of idle
    capacity.

    Admission (shed/deadline/retry) and batching policy are inherited
    unchanged from :class:`RequestDispatcher`; only the buffer hooks
    differ.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: BatchingPolicy,
        on_batch: Callable[[Batch], None],
        tenants: Sequence[TenantShare],
        admission: Optional[AdmissionControl] = None,
        counters: Optional[FaultCounters] = None,
    ):
        super().__init__(
            sim, policy, on_batch, admission=admission, counters=counters
        )
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [share.name for share in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        #: Registration order is the WDRR scan order — part of the
        #: determinism contract, so it is fixed at construction.
        self._shares: Dict[str, TenantShare] = {
            share.name: share for share in tenants
        }
        self._queues: Dict[str, Deque[InferenceRequest]] = {
            share.name: deque() for share in tenants
        }
        self._deficits: Dict[str, float] = {share.name: 0.0 for share in tenants}
        #: The tenant whose visit is current (an index into the scan
        #: order), and whether that visit has been credited its weight.
        self._order = names
        self._turn = 0
        self._credited = False
        self.submitted_by_tenant: Dict[str, int] = dict.fromkeys(names, 0)
        self.shed_by_tenant: Dict[str, int] = dict.fromkeys(names, 0)
        self.batched_by_tenant: Dict[str, int] = dict.fromkeys(names, 0)
        self.timed_out_by_tenant: Dict[str, int] = dict.fromkeys(names, 0)

    @property
    def queue_size(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def submit(self, tenant: Optional[str] = None) -> InferenceRequest:
        if tenant not in self._shares:
            raise ValueError(
                f"unknown tenant {tenant!r}; registered: {list(self._shares)}"
            )
        self.submitted_by_tenant[tenant] += 1
        return super().submit(tenant=tenant)

    def inject(self, request: InferenceRequest) -> None:
        if request.tenant not in self._shares:
            raise ValueError(
                f"unknown tenant {request.tenant!r}; "
                f"registered: {list(self._shares)}"
            )
        self.submitted_by_tenant[request.tenant] += 1
        super().inject(request)

    # ------------------------------------------------------------------
    # Buffer hooks
    # ------------------------------------------------------------------

    def _deadline_for(self, request: InferenceRequest) -> Optional[float]:
        assert request.tenant is not None
        share = self._shares[request.tenant]
        if share.deadline_cycles is not None:
            return share.deadline_cycles
        return super()._deadline_for(request)

    def _should_shed(self, request: InferenceRequest) -> bool:
        assert request.tenant is not None
        share = self._shares[request.tenant]
        cap = share.max_queue_requests
        if cap is None:
            admission = self.admission
            if admission is None or not admission.bounds_queue:
                return False
            cap = admission.max_queue_requests
        return len(self._queues[request.tenant]) >= cap

    def _on_shed(self, request: InferenceRequest) -> None:
        assert request.tenant is not None
        self.shed_by_tenant[request.tenant] += 1

    def _append(self, request: InferenceRequest) -> None:
        assert request.tenant is not None
        self._queues[request.tenant].append(request)

    def _discard(self, request: InferenceRequest) -> bool:
        assert request.tenant is not None
        try:
            self._queues[request.tenant].remove(request)
        except ValueError:
            return False
        return True

    def _take(self, slots: int) -> List[InferenceRequest]:
        taken: List[InferenceRequest] = []
        deficits = self._deficits
        while len(taken) < slots and any(self._queues.values()):
            name = self._order[self._turn]
            queue = self._queues[name]
            if queue:
                if not self._credited:
                    deficits[name] += self._shares[name].weight
                    self._credited = True
                while queue and deficits[name] >= 1.0 and len(taken) < slots:
                    taken.append(queue.popleft())
                    deficits[name] -= 1.0
                if queue and deficits[name] >= 1.0:
                    break  # the batch is full mid-visit: resume it next
            if not queue:
                deficits[name] = 0.0
            self._turn = (self._turn + 1) % len(self._order)
            self._credited = False
        return taken

    def _note_batched(self, request: InferenceRequest) -> None:
        assert request.tenant is not None
        self.batched_by_tenant[request.tenant] += 1

    def _on_timed_out(self, request: InferenceRequest) -> None:
        assert request.tenant is not None
        self.timed_out_by_tenant[request.tenant] += 1

    def _oldest_arrival(self) -> Optional[float]:
        heads = [queue[0].arrival_cycle for queue in self._queues.values() if queue]
        if not heads:
            return None
        return min(heads)


class InferenceEngine:
    """Walks inference batch programs through the datapath models."""

    def __init__(
        self,
        sim: Simulator,
        config: AcceleratorConfig,
        mmu: MatrixMultiplyUnit,
        simd: SIMDUnit,
        program: Program,
        scheduler: SchedulingPolicy,
        spans: Optional[SpanTracer] = None,
    ):
        # Install-time static verification (paper's static budgets): a
        # violating program fails here with a diagnostic instead of deep
        # inside a simulation.
        raise_on_errors(verify_program(program, config, context="inference"))
        self.sim = sim
        self.config = config
        self.mmu = mmu
        self.simd = simd
        self.program = program
        self.scheduler = scheduler
        self.spans = spans
        self._queue: Deque[Batch] = deque()
        # Running total of ``real_count`` over ``_queue``: the arbiter
        # reads it at every grant through the spike-guard signal.
        self._backlog = 0
        self._inflight = 0
        self.latency = LatencyStats()
        self.batches_completed = 0
        self.requests_completed = 0
        #: Fires after each batch completes (spike-guard re-evaluation).
        self.on_batch_complete: Optional[Callable[[], None]] = None

    @property
    def backlog_requests(self) -> int:
        """Real requests batched but not yet started."""
        return self._backlog

    def enqueue(self, batch: Batch) -> None:
        self.scheduler.note_inference_activity(self.sim.now)
        self._queue.append(batch)
        self._backlog += batch.real_count
        self._try_start()

    def _try_start(self) -> None:
        while self._inflight < MAX_INFLIGHT_BATCHES and self._queue:
            batch = self._queue.popleft()
            self._backlog -= batch.real_count
            batch.started_cycle = self.sim.now
            self._inflight += 1
            self._run_step(batch, 0)

    def _run_step(self, batch: Batch, step_index: int) -> None:
        if step_index >= len(self.program.steps):
            self._finish(batch)
            return
        step = self.program.steps[step_index]
        jobs = step.mmu_jobs
        if not jobs:
            self._after_mmu(batch, step_index)
            return
        # The whole step's instruction stream goes down as one queue
        # entry — a single arbiter wake-up instead of one per job, with
        # the per-instruction grant policy unchanged — and one drain
        # event, when the stream's last job drains.
        self.mmu.issue_batch(
            jobs, batch.real_count, "inference",
            on_done=lambda: self._after_mmu(batch, step_index),
        )

    def _after_mmu(self, batch: Batch, step_index: int) -> None:
        step = self.program.steps[step_index]
        self.simd.issue(
            step.simd,
            on_done=lambda: self._run_step(batch, step_index + 1),
            priority=SIMD_INFERENCE_PRIORITY,
        )

    def _finish(self, batch: Batch) -> None:
        batch.complete(self.sim.now)
        self.batches_completed += 1
        self.requests_completed += batch.real_count
        if self.spans is not None:
            start = (
                batch.started_cycle
                if batch.started_cycle is not None else batch.formed_cycle
            )
            self.spans.record("request.execute", start, self.sim.now)
            for request in batch.requests:
                self.spans.record(
                    "request", request.arrival_cycle, self.sim.now
                )
        for request in batch.requests:
            self.latency.record(request.latency_cycles)
        self._inflight -= 1
        self.scheduler.note_inference_activity(self.sim.now)
        if self.on_batch_complete is not None:
            self.on_batch_complete()
        self._try_start()


class TrainingEngine:
    """Streams endless training iterations into idle issue slots.

    The engine pipelines each step's jobs through a prefetch stage: a
    job's operand stream (master weights and stashed activations) must
    land in the staging slice of on-chip SRAM before the job enters the
    MMU's training queue. Staging bytes are recycled when a job starts
    issuing (weight-stationary arrays consume their tiles at issue), so
    the DRAM stream of job *i+1* overlaps the compute of job *i* as far
    as the staging capacity permits. The arbiter decides when training
    jobs actually get issue slots.
    """

    def __init__(
        self,
        sim: Simulator,
        config: AcceleratorConfig,
        mmu: MatrixMultiplyUnit,
        simd: SIMDUnit,
        hbm: HBMInterface,
        program: Program,
        scheduler: SchedulingPolicy,
        inference_queue_size: Callable[[], int],
        spans: Optional[SpanTracer] = None,
    ):
        # Training programs must additionally respect the < 2 % staging
        # cap their operand streams are prefetched through.
        raise_on_errors(verify_program(program, config, context="training"))
        self.sim = sim
        self.config = config
        self.mmu = mmu
        self.simd = simd
        self.hbm = hbm
        self.program = program
        self.scheduler = scheduler
        self.inference_queue_size = inference_queue_size
        self.spans = spans
        # ``Program`` is frozen, so every job's operand stream is fixed
        # at install time: each job of a step stages an equal share of
        # the step's stream. The pipeline only indexes into this list.
        self._job_stream_bytes: List[float] = [
            step.stream_bytes / len(step.mmu_jobs) if step.mmu_jobs else 0.0
            for step in program.steps
        ]
        self._step_job_counts: List[int] = [
            len(step.mmu_jobs) for step in program.steps
        ]
        self._staging_bytes = config.staging_bytes
        self._useful_ops = program.total_useful_ops
        # Software-committed blocks enter the inference FIFO (they are
        # not revocable); hardware policies use the training queue. A
        # per-policy constant, so it is read once.
        self._blocks_preemption = scheduler.training_blocks_preemption()
        self._mmu_queue = "inference" if self._blocks_preemption else "training"
        self.iterations: List[TrainingIterationRecord] = []
        self._started = False
        # Pipeline state.
        self._exec_step = 0  # step whose jobs may enter the MMU queue
        # Jobs of ``_exec_step`` handed to the MMU so far; the one that
        # completes the count carries the step's only drain callback.
        self._exec_jobs_issued = 0
        #: (step, job) of the next job to prefetch; None once the
        #: iteration's last job is prefetched.
        self._prefetch_cursor = self._advance_cursor(0, 0)
        self._staged: List[Tuple[int, int]] = []
        self._staged_bytes = 0.0
        self._inflight_prefetch_bytes = 0.0
        self._prefetch_outstanding = 0
        self._iteration_start = 0.0
        self._exec_step_started = 0.0
        self._committed_step = -1  # software-scheduling block commitment

    # ------------------------------------------------------------------
    # Public controls
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Install the training service: there is always a backlog of
        training requests (paper §5), so the engine runs until the
        simulation ends."""
        if not self.scheduler.allows_training:
            return
        if self._started:
            raise RuntimeError("training engine already started")
        self._started = True
        self._iteration_start = self.sim.now
        self._exec_step_started = self.sim.now
        self._maybe_prefetch()

    def poke(self) -> None:
        """Re-evaluate pending work (called when the inference queue
        shrinks or a batch completes — the spike may have subsided)."""
        if self._started:
            self._maybe_issue()
            self.mmu.pump()

    @property
    def iterations_completed(self) -> int:
        return len(self.iterations)

    # ------------------------------------------------------------------
    # Prefetch stage
    # ------------------------------------------------------------------

    def _advance_cursor(
        self, step_idx: int, job_idx: int
    ) -> Optional[Tuple[int, int]]:
        """The first job at or after ``(step_idx, job_idx)``, skipping
        empty steps; ``None`` past the program's last job."""
        counts = self._step_job_counts
        while step_idx < len(counts):
            if job_idx < counts[step_idx]:
                return step_idx, job_idx
            step_idx += 1
            job_idx = 0
        return None

    def _maybe_prefetch(self) -> None:
        # Most calls find the staging slice full, so the cursor always
        # points at the next job to prefetch and the capacity test
        # comes first.
        position = self._prefetch_cursor
        if position is None:
            return
        step_idx, job_idx = position
        stream = self._job_stream_bytes[step_idx]
        outstanding = self._staged_bytes + self._inflight_prefetch_bytes
        # Always allow one stream in flight even if it alone exceeds the
        # staging slice (it passes through); otherwise respect capacity.
        if (
            self._prefetch_outstanding > 0
            and outstanding + stream > self._staging_bytes
        ):
            return
        if job_idx + 1 < self._step_job_counts[step_idx]:
            self._prefetch_cursor = (step_idx, job_idx + 1)
        else:
            self._prefetch_cursor = self._advance_cursor(step_idx + 1, 0)
        self._prefetch_outstanding += 1
        self._inflight_prefetch_bytes += stream
        prefetch_issued = self.sim.now

        def _staged() -> None:
            self._inflight_prefetch_bytes -= stream
            self._staged_bytes += stream
            if self.spans is not None:
                self.spans.record(
                    "train.prefetch", prefetch_issued, self.sim.now
                )
            # Streams normally land in program order, but an HBM ECC
            # retry re-enters the channel queue and can deliver late —
            # keep the issue queue sorted by program position so the
            # current step's delayed job is never stuck behind a later
            # step's (which would wedge the pipeline).
            insort(self._staged, (step_idx, job_idx))
            self._maybe_issue()
            self._maybe_prefetch()

        if stream <= 0:
            self.sim.after_call(0.0, _staged)
        else:
            self.hbm.transfer(stream, on_done=_staged)

    # ------------------------------------------------------------------
    # Issue stage
    # ------------------------------------------------------------------

    def _maybe_issue(self) -> None:
        while self._staged:
            step_idx, job_idx = self._staged[0]
            if step_idx != self._exec_step:
                break  # staged job belongs to a future step
            if self._blocks_preemption:
                # Software scheduling: commit whole steps; once the
                # first job of a step is dispatched the block cannot be
                # revoked, but a new block needs the quiet-queue gate.
                committed = self._committed_step == step_idx
                if not committed and not self.scheduler.can_commit_training_block(
                    self.inference_queue_size(), self.sim.now
                ):
                    break
                self._committed_step = step_idx
            self._staged.pop(0)
            self._issue_job(step_idx, job_idx)

    def _issue_job(self, step_idx: int, job_idx: int) -> None:
        job = self.program.steps[step_idx].mmu_jobs[job_idx]
        stream = self._job_stream_bytes[step_idx]

        def _issued() -> None:
            # The arrays consume the staged tiles as the job starts;
            # the staging slice is free for the next stream.
            self._staged_bytes -= stream
            self._prefetch_outstanding -= 1
            self._maybe_prefetch()

        # All of a step's jobs enter one FIFO queue of the one MMU,
        # which grants one job at a time and drains each a constant
        # delay after its issue completes. So the step's last job to be
        # handed over — not its last by job index, which an ECC retry
        # can stage late — is the last to drain (DESIGN.md, "One
        # completion per MMU step").
        self._exec_jobs_issued += 1
        on_done = None
        if self._exec_jobs_issued == self._step_job_counts[step_idx]:
            on_done = lambda: self._finish_step(step_idx)
        self.mmu.issue(
            job,
            real_rows=job.rows,
            context="training",
            on_issue=_issued,
            on_done=on_done,
            queue=self._mmu_queue,
        )

    def _finish_step(self, step_idx: int) -> None:
        step = self.program.steps[step_idx]
        # Fire-and-forget write-backs (stashes, gradients).
        for request in step.dram:
            if request.kind in ("stash_out", "grad_out"):
                self.hbm.transfer(request.bytes)

        step_started = self._exec_step_started

        def _after_simd() -> None:
            if self.spans is not None:
                self.spans.record("train.step", step_started, self.sim.now)
            self._next_step(step_idx)

        self.simd.issue(
            step.simd, on_done=_after_simd, priority=SIMD_TRAINING_PRIORITY
        )

    def _next_step(self, step_idx: int) -> None:
        next_idx = step_idx + 1
        # Steps with no MMU jobs are pure DRAM phases (parameter-server
        # sync); serialize their transfers on the chain.
        while next_idx < len(self.program.steps):
            step = self.program.steps[next_idx]
            if step.mmu_jobs:
                break
            sync_bytes = step.dram_bytes
            if sync_bytes > 0:
                captured = next_idx
                sync_started = self.sim.now

                def _sync_done() -> None:
                    if self.spans is not None:
                        self.spans.record(
                            "train.aggregate", sync_started, self.sim.now
                        )
                    self._next_step(captured)

                self.hbm.transfer(sync_bytes, on_done=_sync_done)
                return
            next_idx += 1

        if next_idx >= len(self.program.steps):
            self._finish_iteration()
            return
        self._exec_step = next_idx
        self._exec_jobs_issued = 0
        self._exec_step_started = self.sim.now
        self._maybe_issue()
        self._maybe_prefetch()

    def _finish_iteration(self) -> None:
        record = TrainingIterationRecord(
            iteration_id=len(self.iterations),
            start_cycle=self._iteration_start,
            completion_cycle=self.sim.now,
            useful_ops=self._useful_ops,
        )
        self.iterations.append(record)
        if self.spans is not None:
            self.spans.record(
                "train.iteration", record.start_cycle, record.completion_cycle
            )
        # Start the next iteration immediately: training requests are
        # always available (paper §5).
        self._iteration_start = self.sim.now
        self._exec_step = 0
        self._exec_jobs_issued = 0
        self._exec_step_started = self.sim.now
        self._prefetch_cursor = self._advance_cursor(0, 0)
        self._staged.clear()
        self._staged_bytes = 0.0
        self._inflight_prefetch_bytes = 0.0
        self._prefetch_outstanding = 0
        self._committed_step = -1
        self._maybe_prefetch()
