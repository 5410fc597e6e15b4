"""Deterministic fault injection and graceful degradation.

The Equinox pitch — harvest training from idle inference cycles
*without violating the inference p99 SLO* — is only credible if it
survives the faults a real serving fleet sees: transient HBM ECC
errors, stalled tiles, lossy front-end networks, overload, stragglers
and crashed workers. This package supplies

* **fault models** — declarative, seeded specs
  (:class:`~repro.faults.plan.FaultPlan`) that the datapath
  (:mod:`repro.hw.dram`, :mod:`repro.hw.mmu`), the load generator
  (:mod:`repro.workload.loadgen`) and the fleet
  (:mod:`repro.cluster.fleet`) sample through one
  :class:`~repro.faults.injector.FaultInjector`, so any chaos run is
  byte-for-byte reproducible from its seed;
* **recovery mechanisms** — bounded admission queues with load
  shedding and request deadline timeouts with retry/backoff
  (:class:`~repro.faults.admission.AdmissionControl`, consumed by
  :class:`repro.core.dispatcher.RequestDispatcher`), an SLO guard that
  degrades gracefully under backlog
  (:class:`~repro.faults.guard.SLOGuard`), and straggler-tolerant
  synchronous rounds with partial aggregation and round
  checkpoint/restore in :mod:`repro.cluster`;
* **reporting** — every fault seen and every recovery taken lands in
  :class:`~repro.faults.counters.FaultCounters`, carried by
  ``SimulationReport`` and ``FleetReport`` so experiments quantify
  their degradation.

``python -m repro chaos`` runs a scenario matrix over these models and
prints a degradation table (see :mod:`repro.faults.chaos`).
"""
