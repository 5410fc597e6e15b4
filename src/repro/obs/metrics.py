"""Histograms, deferred sources and the :class:`MetricsRegistry`.

Metric names are lowercase dotted paths (``request.latency_us``,
``mmu.cycles.working``) — the dots are the namespace hierarchy the run
artifact and the ``metrics diff`` CLI flatten on.

Two kinds of producers feed a registry:

* **Histograms** — :class:`Histogram` instruments created through the
  registry and fed on the hot path (the span tracer's
  ``span.<name>.cycles`` durations).
* **Deferred sources** — callables returning a flat ``{leaf: value}``
  dict, read once per :meth:`MetricsRegistry.snapshot`. This is how the
  pre-existing collectors (:class:`repro.sim.stats.LatencyStats`,
  :class:`~repro.sim.stats.ThroughputMeter`,
  :class:`~repro.sim.stats.CycleAccounting`,
  :class:`repro.faults.counters.FaultCounters`) migrated into the
  observability layer without changing their public APIs.

Snapshots are plain nested dicts with deterministically ordered keys,
so two identically seeded runs serialize byte-identically.
"""

import re
from typing import Any, Callable, Dict, Mapping, Union

from repro.obs.sketch import QuantileSketch, check_sample

__all__ = ["Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: use lowercase dotted paths "
            "like 'request.latency_us'"
        )
    return name


#: Distinct values a :class:`Histogram` buffers before folding them into
#: its sketch. Span durations repeat heavily (a training load point's
#: prefetch spans take about 120 distinct values), request spans hardly at
#: all; the cap bounds the buffer's memory for the latter.
_BUFFER_LIMIT = 256


class Histogram:
    """A streaming distribution backed by :class:`QuantileSketch`.

    ``observe`` only counts ``value -> count`` in a buffer; the buffer
    is folded into the sketch (one ``(value, count)`` pair per distinct
    value, in insertion order) when any reader asks, or when it holds
    :data:`_BUFFER_LIMIT` distinct values. The fold is exact: every
    reading of the sketch — buckets (collapsed ones included), zero/inf
    counts, min, max and the exact-expansion ``sum`` — depends only on
    the multiset of samples, not on their order.
    """

    __slots__ = ("name", "_sketch", "_pending")

    def __init__(self, name: str):
        self.name = _check_name(name)
        self._sketch = QuantileSketch()
        self._pending: Dict[float, int] = {}

    def observe(self, value: float) -> None:
        pending = self._pending
        count = pending.get(value)
        if count is not None:
            # Equal to a buffered key, which was checked when added.
            pending[value] = count + 1
            return
        pending[check_sample(value)] = 1
        if len(pending) >= _BUFFER_LIMIT:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if pending:
            # Every buffered key passed ``check_sample`` when added.
            self._sketch.ingest_checked(pending.items())
            pending.clear()

    @property
    def sketch(self) -> QuantileSketch:
        self._fold()
        return self._sketch

    @property
    def count(self) -> int:
        return self.sketch.count

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def to_dict(self) -> Dict[str, float]:
        return self.sketch.to_dict()


#: What a deferred source yields: flat leaf -> numeric value.
SourceFn = Callable[[], Mapping[str, Union[int, float]]]


class MetricsRegistry:
    """One namespace of metrics for a run (accelerator, fleet, CLI).

    ``histogram`` is get-or-create: asking twice for the same name
    returns the same instrument, so components can share metrics
    without threading objects around. A name is either a histogram or
    a source, never both.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, SourceFn] = {}

    def histogram(self, name: str) -> Histogram:
        if name in self._sources:
            raise ValueError(f"metric {name!r} already registered as a source")
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def register_source(self, name: str, fn: SourceFn) -> None:
        """Attach a deferred metric source under the ``name`` prefix.

        The callable is invoked at snapshot time and must return a flat
        mapping of leaf names to numbers — the migration path for the
        legacy collectors, whose public APIs stay untouched.
        """
        _check_name(name)
        if name in self._histograms:
            raise ValueError(
                f"metric {name!r} already registered as a histogram"
            )
        if name in self._sources:
            raise ValueError(f"source {name!r} already registered")
        self._sources[name] = fn

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic nested dict of every metric's current value.

        ``counters`` and ``gauges`` are always empty: they are sections
        of the v1 artifact layout, kept so every artifact keeps its
        shape.
        """
        histograms = {
            name: self._histograms[name].to_dict()
            for name in sorted(self._histograms)
        }
        sources: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._sources):
            values = self._sources[name]()
            sources[name] = {
                leaf: float(values[leaf]) for leaf in sorted(values)
            }
        return {
            "counters": {},
            "gauges": {},
            "histograms": histograms,
            "sources": sources,
        }
