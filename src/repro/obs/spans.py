"""Span aggregates: named intervals of simulated time, per name.

A span is a named interval of simulated time. Components record it
once both of its cycles are known — the dispatcher's request records
already stamp their lifecycle cycles — so the request lifecycle lands
as ``request`` (arrival -> completion), ``request.queue`` (arrival ->
batch formation) and ``request.execute`` (batch dispatch -> tile
completion), and the training lifecycle as ``train.prefetch`` (DRAM
stream issue -> staged) and ``train.step`` (step issue -> SIMD tail
done).

Aggregation is bounded: per-name count/total/max plus a duration
histogram in the attached :class:`MetricsRegistry` under
``span.<name>.cycles``. No per-span record is kept.
"""

from typing import Dict, Optional

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["SpanTracer"]


class SpanTracer:
    """Aggregates recorded spans per name.

    Args:
        registry: Duration histograms land here as
            ``span.<name>.cycles`` (optional).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry
        #: name -> [count, total_cycles, max_cycles]
        self._aggregate: Dict[str, list] = {}
        #: name -> the registry's ``span.<name>.cycles`` histogram,
        #: claimed through ``registry.histogram`` on first use.
        self._histograms: Dict[str, Histogram] = {}

    def record(self, name: str, start_cycle: float, end_cycle: float) -> None:
        """Record one span whose endpoints were stamped elsewhere."""
        if end_cycle < start_cycle:
            raise ValueError(
                f"span {name!r} ends before it starts "
                f"({end_cycle} < {start_cycle})"
            )
        duration = end_cycle - start_cycle
        entry = self._aggregate.get(name)
        if entry is None:
            self._aggregate[name] = [1, duration, duration]
        else:
            entry[0] += 1
            entry[1] += duration
            if duration > entry[2]:
                entry[2] = duration
        if self.registry is not None:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = self.registry.histogram(
                    f"span.{name}.cycles"
                )
            histogram.observe(duration)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Deterministic per-name aggregate for run artifacts."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._aggregate):
            count, total, peak = self._aggregate[name]
            out[name] = {
                "count": float(count),
                "total_cycles": total,
                "mean_cycles": total / count,
                "max_cycles": peak,
            }
        return out
