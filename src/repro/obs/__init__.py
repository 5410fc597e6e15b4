"""repro.obs — the unified observability layer.

Every quantity the paper's evaluation reports — p99 latency (Figures 7,
10, 11), sustained TOp/s (Figure 9, Table 2), the MMU cycle breakdown
(Figure 8), fault/recovery counts — flows through this package so runs
can be exported, compared and correlated:

* :mod:`repro.obs.sketch` — a bounded-memory streaming quantile sketch
  (DDSketch-style log buckets) so p50/p99/p999 work without retaining
  every sample.
* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.MetricsRegistry`
  with histograms and deferred sources (the migration path for the
  pre-existing collectors in :mod:`repro.sim.stats` and
  :mod:`repro.faults.counters`).
* :mod:`repro.obs.spans` — per-name span aggregates of simulated-time
  intervals (request lifecycle: arrival → dispatch → tile execution →
  completion; training lifecycle: prefetch → step → aggregate).
* :mod:`repro.obs.report` — the structured JSON run artifact
  (:class:`~repro.obs.report.RunReport`) every experiment and the chaos
  CLI emit, with its schema validator and differ.
* :mod:`repro.obs.cli` — ``python -m repro metrics`` to dump, validate
  and diff run artifacts.

Determinism contract: everything serialized into a
:class:`~repro.obs.report.RunReport` derives from simulation state
only — two runs with the same seed emit byte-identical JSON. No module
here reads the wall clock.
"""
