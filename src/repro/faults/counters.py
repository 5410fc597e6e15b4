"""Fault and recovery counters carried by every report.

One mutable :class:`FaultCounters` instance is shared by all the
injection and recovery sites of a run (the injector, the dispatcher's
admission control, the SLO guard, the fleet). Reports embed a snapshot
so every experiment quantifies its degradation — and so determinism
tests can compare whole runs by value.
"""

from dataclasses import asdict, dataclass, replace
from typing import Dict


@dataclass
class FaultCounters:
    """Everything injected and everything recovered, by mechanism."""

    # --- injected faults --------------------------------------------------
    hbm_errors: int = 0  #: transfers that hit a transient ECC error
    mmu_stalls: int = 0  #: jobs that hit a tile/PE stall
    mmu_stall_cycles: float = 0.0  #: total extra MMU occupancy from stalls
    requests_dropped: int = 0  #: requests lost before the dispatcher
    requests_delayed: int = 0  #: requests delayed on the wire
    workers_crashed: int = 0  #: fleet workers lost mid-round

    # --- recovery actions -------------------------------------------------
    hbm_retries: int = 0  #: ECC retries issued (bounded per transfer)
    hbm_retry_exhausted: int = 0  #: transfers that used their whole budget
    rejected_requests: int = 0  #: requests shed by the admission queue
    request_timeouts: int = 0  #: requests abandoned at their deadline
    request_retries: int = 0  #: deadline-expired requests re-admitted
    degraded_intervals: int = 0  #: SLO-guard degraded-mode entries
    degraded_cycles: float = 0.0  #: cycles spent in degraded mode
    stragglers_dropped: int = 0  #: workers excluded by the round timeout
    rounds_partial: int = 0  #: rounds completed by partial aggregation
    round_restores: int = 0  #: rounds resumed from a checkpoint

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)

    def snapshot(self) -> "FaultCounters":
        """A value copy for embedding in an immutable-ish report."""
        return replace(self)

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate another run's counters into this one (fleet
        reports roll up each worker accelerator's counters)."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)

    @property
    def faults_injected(self) -> int:
        return (
            self.hbm_errors
            + self.mmu_stalls
            + self.requests_dropped
            + self.requests_delayed
            + self.workers_crashed
        )

    @property
    def recoveries(self) -> int:
        return (
            self.hbm_retries
            + self.rejected_requests
            + self.request_timeouts
            + self.request_retries
            + self.degraded_intervals
            + self.stragglers_dropped
            + self.rounds_partial
            + self.round_restores
        )

    def nonzero(self) -> Dict[str, float]:
        """Only the counters that fired (compact report rendering)."""
        return {k: v for k, v in self.as_dict().items() if v}
