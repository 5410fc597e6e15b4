"""Multi-tenant SLO-tiered serving over a simulated Equinox chip fleet.

The paper's single-chip claim — inference p99 SLOs hold while idle
cycles train for free — only matters operationally if it survives
multi-tenancy: N tenants in distinct SLO tiers sharing a fleet of
chips, flash crowds in one tier, chips dying mid-run. This package
layers that serving fabric over the cycle-calibrated chip model:

* **service classes** (:mod:`repro.serve.classes`) — SLO tiers
  (latency-critical / best-effort / batch-training) expressed in
  chip-relative units and calibrated into per-tenant admission
  budgets, queue deadlines, and fair-share weights;
* **fair-share batching** (:class:`repro.core.dispatcher.
  FairShareDispatcher`) — weighted deficit round-robin over per-tenant
  bounded queues, so a saturating tenant sheds its own traffic instead
  of starving another tier's p99;
* **fleet routing** (:mod:`repro.serve.router`) — least-outstanding-
  work placement with power-of-two-choices over seeded substreams,
  service-affinity arcs, and chip-kill failover that drains a dead
  chip's requests back through admission on the survivors;
* **the scenario matrix** (:mod:`repro.serve.scenarios`, CLI
  ``python -m repro serve``) — sustained RPS and p50/p99/p999 per SLO
  class per fleet size, emitted as the schema-validated
  ``repro.serve/fleet-report/v1`` artifact whose every point carries a
  double-run determinism verdict.

Everything here draws randomness only through seeded, crc32-keyed
substreams (lint rule EQX310 enforces this), so reports are
byte-identical across runs and ``--jobs`` settings.
"""
