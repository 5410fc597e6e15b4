"""Instruction-controller scheduling policies (paper §3.2, Figure 10).

The instruction controller schedules instructions from the inference
and training contexts at instruction granularity. Equinox's hardware
*priority* scheduler round-robins the two services only while inference
queueing is low: it compares the inference queue size against a maximum
threshold defined at installation time and, during load spikes, stops
servicing training requests entirely until the spike subsides.

The *fair* scheduler round-robins regardless of queue depth (the
comparison point of Figure 10), *inference-only* disables training
(the baseline), and the *software* scheduler models a host-side control
plane that can only dispatch training at batch granularity with a long
decision turnaround — which, as §6 reports, ends up unable to schedule
training without violating the latency target.

Policies are consulted by the MMU arbiter at every grant while a
training job waits, through :meth:`SchedulingPolicy.select_queue`.
"""

from typing import Dict, Optional

INFERENCE = "inference"
TRAINING = "training"


def _alternate(last: str) -> str:
    return TRAINING if last == INFERENCE else INFERENCE


class SchedulingPolicy:
    """Grant-time arbitration between the two service contexts."""

    #: Whether a training service can make progress at all.
    allows_training: bool = True

    #: Degraded-mode override, driven by the SLO guard
    #: (:class:`repro.faults.guard.SLOGuard`): while set, training is
    #: preempted outright — no grant and no block commitment — so the
    #: whole datapath drains the inference backlog.
    degraded: bool = False

    #: Lazily created per instance (subclasses predate this and do not
    #: call ``super().__init__``), so the class attribute is a sentinel.
    _decisions: Optional[Dict[str, int]] = None

    def set_degraded(self, degraded: bool) -> None:
        self.degraded = degraded

    @property
    def decisions(self) -> Dict[str, int]:
        """Grant tally per outcome (``inference``/``training``/``idle``).
        The MMU arbiter adds one per arbitration into this very dict,
        including the lone-inference grants it makes without asking."""
        if self._decisions is None:
            self._decisions = {}
        return self._decisions

    def metrics(self) -> Dict[str, float]:
        """Deferred-source view for a ``MetricsRegistry``."""
        tally = self.decisions
        return {
            f"decisions.{key}": float(tally[key]) for key in sorted(tally)
        }

    def select_queue(
        self,
        inference_ready: bool,
        training_ready: bool,
        inference_backlog: int,
        last_granted: str,
    ) -> Optional[str]:
        """Which queue gets the next issue slot (None = hold idle).

        Contract: with the inference queue the only one ready, every
        policy returns ``"inference"``, degraded or not and at any
        backlog — the spike guard and degraded mode only ever withhold
        training. The MMU arbiter relies on it: it grants a lone
        inference queue without calling this method or reading the
        backlog signal.
        """
        raise NotImplementedError

    def can_commit_training_block(
        self, inference_backlog: int, now: float
    ) -> bool:
        """Pre-issue gate used only by block-granular (software)
        scheduling; hardware policies decide at grant time instead."""
        return True

    def training_blocks_preemption(self) -> bool:
        """Whether training issues in non-preemptable blocks placed in
        the inference queue (software scheduling's batch granularity)."""
        return False

    def note_inference_activity(self, now: float) -> None:
        """Hook: policies tracking inference activity override this."""


class PriorityScheduler(SchedulingPolicy):
    """Equinox's hardware scheduler with the queue-spike guard.

    Round-robin between the services while the inference queue is below
    the threshold; inference-only when it spikes above. A training-only
    grant is also withheld during a spike — the controller dedicates
    every execution resource to the inference requests about to issue.

    Attributes:
        queue_threshold: Inference request-queue size above which
            training is paused (installation-time constant).
    """

    def __init__(self, queue_threshold: int):
        if queue_threshold < 1:
            raise ValueError("queue threshold must be positive")
        self.queue_threshold = queue_threshold

    def select_queue(
        self,
        inference_ready: bool,
        training_ready: bool,
        inference_backlog: int,
        last_granted: str,
    ) -> Optional[str]:
        if self.degraded:
            return INFERENCE if inference_ready else None
        spike = inference_backlog > self.queue_threshold
        if inference_ready and training_ready:
            if spike:
                return INFERENCE
            return _alternate(last_granted)
        if inference_ready:
            return INFERENCE
        if training_ready and not spike:
            return TRAINING
        return None

    def __repr__(self) -> str:
        return f"PriorityScheduler(queue_threshold={self.queue_threshold})"


class FairScheduler(SchedulingPolicy):
    """Round-robin between services regardless of inference queueing.

    Equal division of execution resources — the behaviour Figure 10
    shows costs ~1.3× inference throughput under the latency target,
    because training keeps taking issue slots during load spikes.
    """

    def select_queue(
        self,
        inference_ready: bool,
        training_ready: bool,
        inference_backlog: int,
        last_granted: str,
    ) -> Optional[str]:
        if self.degraded:
            return INFERENCE if inference_ready else None
        if inference_ready and training_ready:
            return _alternate(last_granted)
        if inference_ready:
            return INFERENCE
        if training_ready:
            return TRAINING
        return None

    def __repr__(self) -> str:
        return "FairScheduler()"


class InferenceOnlyScheduler(SchedulingPolicy):
    """The baseline: no training service installed."""

    allows_training = False

    def select_queue(
        self,
        inference_ready: bool,
        training_ready: bool,
        inference_backlog: int,
        last_granted: str,
    ) -> Optional[str]:
        return INFERENCE if inference_ready else None

    def __repr__(self) -> str:
        return "InferenceOnlyScheduler()"


class SoftwareScheduler(SchedulingPolicy):
    """A host-software control plane (paper §6, "Scheduling").

    Software observes queue state with a decision turnaround measured
    in microseconds (PCIe round trip + driver), and can only dispatch
    training at batch granularity — once issued, a training block is
    not preemptable, so its jobs are placed in the inference FIFO. To
    avoid violating the inference latency target it must be
    conservative: it only commits a block when the inference queue has
    been empty for a full decision interval.

    Attributes:
        decision_latency_cycles: Scheduling turnaround in cycles.
    """

    def __init__(self, decision_latency_cycles: float):
        if decision_latency_cycles <= 0:
            raise ValueError("decision latency must be positive")
        self.decision_latency_cycles = decision_latency_cycles
        self._last_inference_activity = 0.0

    def note_inference_activity(self, now: float) -> None:
        self._last_inference_activity = now

    def can_commit_training_block(
        self, inference_backlog: int, now: float
    ) -> bool:
        if self.degraded:
            return False
        if inference_backlog > 0:
            return False
        quiet = now - self._last_inference_activity
        return quiet >= self.decision_latency_cycles

    def select_queue(
        self,
        inference_ready: bool,
        training_ready: bool,
        inference_backlog: int,
        last_granted: str,
    ) -> Optional[str]:
        # Committed blocks live in the inference FIFO, so grant order is
        # plain FIFO there; the training queue stays unused.
        if inference_ready:
            return INFERENCE
        if training_ready and not self.degraded:
            return TRAINING
        return None

    def training_blocks_preemption(self) -> bool:
        return True

    def __repr__(self) -> str:
        return (
            f"SoftwareScheduler(decision_latency_cycles="
            f"{self.decision_latency_cycles:.0f})"
        )


def make_scheduler(
    kind: str,
    queue_threshold: int = 1,
    decision_latency_cycles: float = 1.0,
) -> SchedulingPolicy:
    """Factory used by the accelerator facade.

    Args:
        kind: ``"priority"``, ``"fair"``, ``"inference_only"`` or
            ``"software"``.
        queue_threshold: Spike guard for the priority scheduler.
        decision_latency_cycles: Turnaround for the software scheduler.
    """
    if kind == "priority":
        return PriorityScheduler(queue_threshold)
    if kind == "fair":
        return FairScheduler()
    if kind == "inference_only":
        return InferenceOnlyScheduler()
    if kind == "software":
        return SoftwareScheduler(decision_latency_cycles)
    raise ValueError(f"unknown scheduling policy {kind!r}")
