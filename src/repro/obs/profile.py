"""Simulator hot-path profiling.

:class:`SimProfiler` hangs off :meth:`repro.sim.engine.Simulator
.set_profiler` and observes every event the kernel executes: heap depth
at dispatch, an event count per callback (component attribution via
``__qualname__``), and wall-clock time spent inside each callback. The
engine itself never reads the wall clock — that would violate the
EQX302 determinism lint for ``repro.sim`` — it only calls the hook
pair; the clock lives here, outside the deterministic packages.

Two export surfaces with different guarantees:

* :meth:`deterministic_metrics` / :meth:`component_events` — counts and
  depths derived from simulation structure only; safe to embed in a
  byte-identical :class:`repro.obs.report.RunReport`.
* :meth:`wall_summary` — events/sec and per-component seconds; real
  wall-clock data, deliberately **kept out** of run artifacts so the
  determinism contract holds.
"""

import time
from typing import Callable, Dict, Optional

__all__ = ["SimProfiler"]


def _component_of(callback: Callable) -> str:
    """A stable display name for a callback (module.qualname)."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return type(callback).__name__
    module = getattr(callback, "__module__", None)
    return f"{module}.{qualname}" if module else qualname


class SimProfiler:
    """Per-event instrumentation for one simulator run.

    Args:
        clock: Wall-clock source (injectable for tests); defaults to
            :func:`time.perf_counter`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.events = 0
        self.max_heap_depth = 0
        self._event_counts: Dict[str, int] = {}
        self._wall_by_component: Dict[str, float] = {}
        self.wall_seconds = 0.0
        self._pending: Optional[str] = None
        self._started_at: float = 0.0

    # ------------------------------------------------------------------
    # Engine hooks (called from Simulator.run's hot loop)
    # ------------------------------------------------------------------

    def before_event(self, event, heap_depth: int) -> None:
        component = _component_of(event.callback)
        self.events += 1
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        self._event_counts[component] = (
            self._event_counts.get(component, 0) + 1
        )
        self._pending = component
        self._started_at = self._clock()

    def after_event(self, event) -> None:
        if self._pending is None:
            return
        elapsed = self._clock() - self._started_at
        self.wall_seconds += elapsed
        self._wall_by_component[self._pending] = (
            self._wall_by_component.get(self._pending, 0.0) + elapsed
        )
        self._pending = None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def deterministic_metrics(self) -> Dict[str, float]:
        """Simulation-derived figures only (run-artifact safe)."""
        return {
            "events": float(self.events),
            "max_heap_depth": float(self.max_heap_depth),
        }

    def component_events(self) -> Dict[str, float]:
        """Event count per callback component (deterministic)."""
        return {
            name: float(self._event_counts[name])
            for name in sorted(self._event_counts)
        }

    def events_per_second(self) -> float:
        """Kernel throughput in events per *wall* second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def wall_summary(self) -> Dict[str, float]:
        """Wall-clock view — nondeterministic, never embedded in run
        artifacts; the metrics CLI prints it to stderr instead."""
        out = {
            "wall_seconds": self.wall_seconds,
            "events_per_second": self.events_per_second(),
        }
        for name in sorted(self._wall_by_component):
            out[f"callback_seconds.{name}"] = self._wall_by_component[name]
        return out
