"""Runtime fault sampling bound to one :class:`FaultPlan`.

The injector is the only object that draws random numbers for fault
injection. Each component samples from its own substream
(:meth:`FaultPlan.rng`), in the deterministic order the discrete-event
simulator visits the injection sites — which makes every chaos run
reproducible from ``(plan, workload seed)`` alone.
"""

from typing import Optional

from repro.faults.counters import FaultCounters
from repro.faults.plan import FaultPlan


class WorkerCrashError(RuntimeError):
    """A fleet worker died mid-round (injected by a :class:`FaultPlan`)."""

    def __init__(self, worker_id: int):
        super().__init__(f"worker {worker_id} crashed during the round")
        self.worker_id = worker_id


class FaultInjector:
    """Samples a plan's fault specs and tallies what it injected.

    Components hold a reference and call the site-specific methods at
    their injection points; a ``None`` injector (the default everywhere)
    means the fault subsystem is entirely out of the picture.
    """

    def __init__(self, plan: FaultPlan, counters: Optional[FaultCounters] = None):
        self.plan = plan
        self.counters = counters if counters is not None else FaultCounters()
        self._hbm_rng = plan.rng("hbm")
        self._mmu_rng = plan.rng("mmu")

    # ------------------------------------------------------------------
    # hw.dram — transient ECC errors with bounded retry
    # ------------------------------------------------------------------

    @property
    def hbm_max_retries(self) -> int:
        return self.plan.hbm.max_retries

    def hbm_transfer_error(self) -> bool:
        """Whether this transfer completion carries an ECC error."""
        if not self.plan.hbm.enabled:
            return False
        if self._hbm_rng.random() >= self.plan.hbm.error_rate:
            return False
        self.counters.hbm_errors += 1
        return True

    def note_hbm_retry(self) -> None:
        self.counters.hbm_retries += 1

    def note_hbm_retry_exhausted(self) -> None:
        self.counters.hbm_retry_exhausted += 1

    # ------------------------------------------------------------------
    # hw.mmu — tile/PE stalls
    # ------------------------------------------------------------------

    def mmu_stall_cycles(self) -> float:
        """Extra occupancy for the job being granted (0.0 = no stall)."""
        spec = self.plan.mmu
        if not spec.enabled:
            return 0.0
        if self._mmu_rng.random() >= spec.stall_rate:
            return 0.0
        self.counters.mmu_stalls += 1
        self.counters.mmu_stall_cycles += spec.stall_cycles
        return spec.stall_cycles

    # ------------------------------------------------------------------
    # cluster.fleet — crashes and stragglers (spec-driven, no sampling:
    # fleet faults name their victims so scenarios stay composable)
    # ------------------------------------------------------------------

    def check_worker_crash(self, worker_id: int) -> None:
        """Raise :class:`WorkerCrashError` if the plan kills this worker."""
        if self.plan.workers.is_crashed(worker_id):
            self.counters.workers_crashed += 1
            raise WorkerCrashError(worker_id)

    def worker_slowdown(self, worker_id: int) -> float:
        return self.plan.workers.slowdown_for(worker_id)
