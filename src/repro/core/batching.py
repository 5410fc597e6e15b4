"""Batch-formation policies (paper §3.1, evaluated in Figure 11).

The request controller gathers arriving requests in a batch formation
buffer. Under *static* batching it waits for a full batch, which at low
load lets formation time dominate latency. Under *adaptive* batching it
issues an incomplete batch — padded with dummy requests whose results
are disposed — once the oldest request has waited a threshold defined
at installation time (the paper sweeps 2×–10× the service time and
settles on 2×).
"""

from typing import Optional


class BatchingPolicy:
    """Decides when the formation buffer should issue a batch."""

    def set_degraded(self, degraded: bool) -> None:
        """Degraded-mode hook (SLO guard): policies that can trade
        formation efficiency for latency override this; the default is
        inert so static batching keeps its contract."""

    def should_issue(self, queued: int, oldest_wait_cycles: float) -> bool:
        """Whether to issue right now given buffer state."""
        raise NotImplementedError

    def deadline_cycles(self, oldest_arrival_cycle: float) -> Optional[float]:
        """Absolute cycle by which an incomplete batch must issue, or
        None if the policy never forces issue."""
        raise NotImplementedError

    @property
    def batch_slots(self) -> int:
        raise NotImplementedError


class StaticBatching(BatchingPolicy):
    """Issue only complete batches.

    Attributes:
        slots: Batch size (the accelerator's ``n`` for vector models).
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("batch size must be positive")
        self.slots = slots

    @property
    def batch_slots(self) -> int:
        return self.slots

    def should_issue(self, queued: int, oldest_wait_cycles: float) -> bool:
        return queued >= self.slots

    def deadline_cycles(self, oldest_arrival_cycle: float) -> Optional[float]:
        return None

    def __repr__(self) -> str:
        return f"StaticBatching(slots={self.slots})"


class AdaptiveBatching(BatchingPolicy):
    """Issue a full batch immediately, or an incomplete one at timeout.

    Attributes:
        slots: Batch size.
        timeout_cycles: Maximum formation wait for the oldest request
            before the batch issues padded with dummies. The paper
            expresses this as a multiple of the workload service time
            ("X× service time", Figure 11b/c) and picks 2×.
    """

    #: Formation-timeout divisor while the SLO guard holds the policy
    #: in degraded mode: batches shrink (issue earlier, more padding)
    #: so queued requests stop paying full formation waits on top of
    #: fault-induced queueing.
    DEGRADED_TIMEOUT_DIVISOR = 2.0

    def __init__(self, slots: int, timeout_cycles: float):
        if slots < 1:
            raise ValueError("batch size must be positive")
        if timeout_cycles <= 0:
            raise ValueError("timeout must be positive")
        self.slots = slots
        self.timeout_cycles = timeout_cycles
        self.degraded = False

    def set_degraded(self, degraded: bool) -> None:
        self.degraded = degraded

    @property
    def effective_timeout_cycles(self) -> float:
        if self.degraded:
            return self.timeout_cycles / self.DEGRADED_TIMEOUT_DIVISOR
        return self.timeout_cycles

    @property
    def batch_slots(self) -> int:
        return self.slots

    def should_issue(self, queued: int, oldest_wait_cycles: float) -> bool:
        if queued >= self.slots:
            return True
        return queued > 0 and oldest_wait_cycles >= self.effective_timeout_cycles

    def deadline_cycles(self, oldest_arrival_cycle: float) -> Optional[float]:
        return oldest_arrival_cycle + self.effective_timeout_cycles

    def __repr__(self) -> str:
        return (
            f"AdaptiveBatching(slots={self.slots}, "
            f"timeout_cycles={self.timeout_cycles:.0f})"
        )


class PullBatching(BatchingPolicy):
    """Never self-issues; batches form only on explicit demand.

    The fleet chip servers (``repro.serve.router``) pull a batch via
    :meth:`repro.core.dispatcher.RequestDispatcher.form_one` exactly
    when a service slot frees up. Eager formation would defeat the
    bounded admission queue: formed batches are no longer "queued
    requests", so a saturating tenant could convert its whole flash
    crowd into an unbounded backlog of formed batches. Keeping requests
    in the formation buffer until the datapath can actually take them
    preserves both the admission bound and the fair-share pick order.

    Attributes:
        slots: Batch size.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError("batch size must be positive")
        self.slots = slots

    @property
    def batch_slots(self) -> int:
        return self.slots

    def should_issue(self, queued: int, oldest_wait_cycles: float) -> bool:
        return False

    def deadline_cycles(self, oldest_arrival_cycle: float) -> Optional[float]:
        return None

    def __repr__(self) -> str:
        return f"PullBatching(slots={self.slots})"


def make_batching(
    kind: str, slots: int, timeout_cycles: float = 0.0
) -> BatchingPolicy:
    """Factory used by the accelerator facade.

    Args:
        kind: ``"static"`` or ``"adaptive"``.
        slots: Batch size.
        timeout_cycles: Adaptive formation timeout (ignored otherwise).
    """
    if kind == "static":
        return StaticBatching(slots)
    if kind == "adaptive":
        return AdaptiveBatching(slots, timeout_cycles)
    raise ValueError(f"unknown batching policy {kind!r}")
