"""The SLO guard: graceful degradation under backlog.

The hardware spike guard (paper §3.2) already pauses training grants
while the inference queue is above its threshold — but it is stateless
and instantaneous. The SLO guard is the *service-level* layer above it:
it samples the inference backlog periodically and, when the backlog
crosses a degradation threshold (a fault is piling work up faster than
the datapath drains it), switches the whole front-end into degraded
mode:

* training is preempted outright (``SchedulingPolicy.degraded``), not
  just deprioritized — no training job is granted and no software
  block committed until recovery;
* adaptive batch formation shrinks (``BatchingPolicy.set_degraded``):
  batches issue on a halved timeout so queued requests stop paying
  full formation waits on top of queueing.

Every entry and the total cycles spent degraded are counted, so a
report shows *how long* the service ran in degraded mode, not just
that it survived. Hysteresis prevents flapping at the boundary: the
guard recovers only once the backlog is down to half the degradation
threshold.
"""

from typing import Callable, Optional

from repro.faults.counters import FaultCounters
from repro.sim.engine import Simulator


class SLOGuard:
    """Periodic backlog monitor driving degraded mode.

    Args:
        sim: The simulator whose clock paces the checks.
        backlog_fn: The inference-backlog signal (requests queued or
            batched-but-not-started).
        degrade_threshold: Backlog at or above which degraded mode
            engages.
        check_interval_cycles: Sampling period (typically one batch
            service time).
        counters: Shared fault/recovery counters.
        on_degrade / on_recover: Mode-transition hooks (the accelerator
            wires these to the scheduler and batching policy).
    """

    def __init__(
        self,
        sim: Simulator,
        backlog_fn: Callable[[], int],
        degrade_threshold: int,
        check_interval_cycles: float,
        counters: FaultCounters,
        on_degrade: Optional[Callable[[], None]] = None,
        on_recover: Optional[Callable[[], None]] = None,
    ):
        if degrade_threshold < 1:
            raise ValueError(
                f"degrade_threshold must be >= 1, got {degrade_threshold}"
            )
        if check_interval_cycles <= 0:
            raise ValueError(
                f"check_interval_cycles must be positive, "
                f"got {check_interval_cycles}"
            )
        self.sim = sim
        self.backlog_fn = backlog_fn
        self.degrade_threshold = degrade_threshold
        #: Backlog at or below which degraded mode disengages.
        self.recover_threshold = degrade_threshold // 2
        self.check_interval_cycles = check_interval_cycles
        self.counters = counters
        self.on_degrade = on_degrade
        self.on_recover = on_recover
        self.degraded = False
        self._degraded_since = 0.0
        sim.every(check_interval_cycles, self._check)

    def _check(self) -> None:
        backlog = self.backlog_fn()
        if not self.degraded and backlog >= self.degrade_threshold:
            self.degraded = True
            self._degraded_since = self.sim.now
            self.counters.degraded_intervals += 1
            if self.on_degrade is not None:
                self.on_degrade()
        elif self.degraded and backlog <= self.recover_threshold:
            self.degraded = False
            self.counters.degraded_cycles += self.sim.now - self._degraded_since
            if self.on_recover is not None:
                self.on_recover()

    def flush(self) -> None:
        """Account cycles of a still-open degraded interval (so a report
        cut mid-degradation still shows the time spent degraded)."""
        if self.degraded:
            self.counters.degraded_cycles += self.sim.now - self._degraded_since
            self._degraded_since = self.sim.now
