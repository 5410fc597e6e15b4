"""Counters, gauges, histograms and the :class:`MetricsRegistry`.

Metric names are lowercase dotted paths (``request.latency_us``,
``mmu.cycles.working``) — the dots are the namespace hierarchy the run
artifact and the ``metrics diff`` CLI flatten on.

Two kinds of producers feed a registry:

* **Live instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` created through the registry and updated on the
  hot path.
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

import math
import re
from typing import Any, Callable, Dict, Mapping, Union

from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: use lowercase dotted paths "
            "like 'request.latency_us'"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self._value += amount


class Gauge:
    """A point-in-time value (queue depth, degraded flag, ...)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"gauge {self.name} cannot be set to NaN")
        self._value = value

    def track_max(self, value: float) -> None:
        """Keep the high-water mark (heap depth, backlog peaks)."""
        if value > self._value:
            self.set(value)


class Histogram:
    """A streaming distribution backed by :class:`QuantileSketch`."""

    __slots__ = ("name", "help", "sketch")

    def __init__(
        self,
        name: str,
        help: str = "",
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ):
        self.name = _check_name(name)
        self.help = help
        self.sketch = QuantileSketch(relative_accuracy=relative_accuracy)

    def observe(self, value: float) -> None:
        self.sketch.observe(value)

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

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument, so components can
    share metrics without threading objects around. Creating a name as
    two different kinds is an error.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, SourceFn] = {}

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
            "source": self._sources,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str, help: str = "") -> Counter:
        self._claim(name, "counter")
        if name not in self._counters:
            self._counters[name] = Counter(name, help)
        return self._counters[name]

    def gauge(self, name: str, help: str = "") -> Gauge:
        self._claim(name, "gauge")
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, help)
        return self._gauges[name]

    def histogram(
        self,
        name: str,
        help: str = "",
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> Histogram:
        self._claim(name, "histogram")
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, help, relative_accuracy)
        return self._histograms[name]

    def register_source(self, name: str, fn: SourceFn) -> None:
        """Attach a deferred metric source under the ``name`` prefix.

        The callable is invoked at snapshot time and must return a flat
        mapping of leaf names to numbers — the migration path for the
        legacy collectors, whose public APIs stay untouched.
        """
        _check_name(name)
        self._claim(name, "source")
        if name in self._sources:
            raise ValueError(f"source {name!r} already registered")
        self._sources[name] = fn

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic nested dict of every metric's current value."""
        counters = {
            name: self._counters[name].value for name in sorted(self._counters)
        }
        gauges = {
            name: self._gauges[name].value for name in sorted(self._gauges)
        }
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
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "sources": sources,
        }

    def to_state(self) -> Dict[str, Any]:
        """Snapshot (``repro.state`` contract): every live instrument's
        value, with histograms as lossless sketch dumps.

        Deferred sources are *not* captured: they are read-through views
        over components that snapshot themselves, and the facade
        re-registers them at construction.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].sketch.to_state()
                for name in sorted(self._histograms)
            },
        }

    def from_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`to_state`: instruments are get-or-created
        (help strings are presentation, not state) and overwritten."""
        for name, value in state["counters"].items():
            self.counter(name)._value = float(value)
        for name, value in state["gauges"].items():
            self.gauge(name)._value = float(value)
        for name, sketch_state in state["histograms"].items():
            self.histogram(name).sketch = QuantileSketch.from_state(
                sketch_state
            )

    def flat(self) -> Dict[str, float]:
        """Flattened ``{dotted.path: value}`` view of :meth:`snapshot`
        (what ``python -m repro metrics diff`` compares)."""
        out: Dict[str, float] = {}
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            out[name] = value
        for name, value in snap["gauges"].items():
            out[name] = value
        for name, fields in snap["histograms"].items():
            for leaf, value in fields.items():
                out[f"{name}.{leaf}"] = value
        for name, fields in snap["sources"].items():
            for leaf, value in fields.items():
                out[f"{name}.{leaf}"] = value
        return out
