"""Deterministic fault injection and graceful degradation.

The Equinox pitch — harvest training from idle inference cycles
*without violating the inference p99 SLO* — is only credible if it
survives the faults a real serving fleet sees: transient HBM ECC
errors, stalled tiles, lossy front-end networks, overload, stragglers
and crashed workers. This package supplies

* **fault models** — declarative, seeded specs (:class:`FaultPlan`)
  that the datapath (:mod:`repro.hw.dram`, :mod:`repro.hw.mmu`), the
  load generator (:mod:`repro.workload.loadgen`) and the fleet
  (:mod:`repro.cluster.fleet`) sample through one
  :class:`FaultInjector`, so any chaos run is byte-for-byte
  reproducible from its seed;
* **recovery mechanisms** — bounded admission queues with load
  shedding and request deadline timeouts with retry/backoff
  (:class:`AdmissionControl`, consumed by
  :class:`repro.core.dispatcher.RequestDispatcher`), an SLO guard that
  degrades gracefully under backlog (:class:`SLOGuard`), and
  straggler-tolerant synchronous rounds with partial aggregation and
  round checkpoint/restore in :mod:`repro.cluster`;
* **reporting** — every fault seen and every recovery taken lands in
  :class:`FaultCounters`, carried by ``SimulationReport`` and
  ``FleetReport`` so experiments quantify their degradation.

``python -m repro chaos`` runs a scenario matrix over these models and
prints a degradation table (see :mod:`repro.faults.chaos`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.admission import AdmissionControl
    from repro.faults.counters import FaultCounters
    from repro.faults.guard import SLOGuard
    from repro.faults.injector import FaultInjector, WorkerCrashError
    from repro.faults.plan import (
        FaultPlan,
        HBMFaultSpec,
        MMUFaultSpec,
        RequestFaultSpec,
        WorkerFaultSpec,
    )

__all__ = [
    "AdmissionControl",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "HBMFaultSpec",
    "MMUFaultSpec",
    "RequestFaultSpec",
    "SLOGuard",
    "WorkerCrashError",
    "WorkerFaultSpec",
]

__getattr__ = lazy_exports(__name__, {
    "AdmissionControl": "repro.faults.admission",
    "FaultCounters": "repro.faults.counters",
    "SLOGuard": "repro.faults.guard",
    "FaultInjector": "repro.faults.injector",
    "WorkerCrashError": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "HBMFaultSpec": "repro.faults.plan",
    "MMUFaultSpec": "repro.faults.plan",
    "RequestFaultSpec": "repro.faults.plan",
    "WorkerFaultSpec": "repro.faults.plan",
})
