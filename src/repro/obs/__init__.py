"""repro.obs — the unified observability layer.

Every quantity the paper's evaluation reports — p99 latency (Figures 7,
10, 11), sustained TOp/s (Figure 9, Table 2), the MMU cycle breakdown
(Figure 8), fault/recovery counts — flows through this package so runs
can be exported, compared and correlated:

* :mod:`repro.obs.sketch` — a bounded-memory streaming quantile sketch
  (DDSketch-style log buckets) so p50/p99/p999 work without retaining
  every sample.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with histograms
  and deferred sources (the migration path for the pre-existing
  collectors in :mod:`repro.sim.stats` and
  :mod:`repro.faults.counters`).
* :mod:`repro.obs.spans` — per-name span aggregates of simulated-time
  intervals (request lifecycle: arrival → dispatch → tile execution →
  completion; training lifecycle: prefetch → step → aggregate).
* :mod:`repro.obs.report` — the structured JSON run artifact
  (:class:`RunReport`) every experiment and the chaos CLI emit, with
  its schema validator and differ.
* :mod:`repro.obs.cli` — ``python -m repro metrics`` to dump, validate
  and diff run artifacts.

Determinism contract: everything serialized into a
:class:`RunReport` derives from simulation state only — two runs with
the same seed emit byte-identical JSON. No module here reads the wall
clock.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.metrics import Histogram, MetricsRegistry
    from repro.obs.report import (
        RunReport,
        diff_reports,
        report_from_simulation,
        validate_report,
    )
    from repro.obs.sketch import QuantileSketch
    from repro.obs.spans import SpanTracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "RunReport",
    "SpanTracer",
    "diff_reports",
    "report_from_simulation",
    "validate_report",
]

__getattr__ = lazy_exports(__name__, {
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "RunReport": "repro.obs.report",
    "diff_reports": "repro.obs.report",
    "report_from_simulation": "repro.obs.report",
    "validate_report": "repro.obs.report",
    "QuantileSketch": "repro.obs.sketch",
    "SpanTracer": "repro.obs.spans",
})
