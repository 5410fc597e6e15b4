"""Hierarchical span tracing layered on :class:`repro.sim.trace.Tracer`.

A span is a named interval of simulated time with an optional parent —
the request lifecycle nests as::

    request                       (arrival -> completion)
      request.queue               (arrival -> batch formation)
      request.execute             (batch dispatch -> tile completion)

and the training lifecycle as::

    train.iteration               (iteration start -> gradient done)
      train.prefetch              (DRAM stream issue -> staged)
      train.step                  (step issue -> SIMD tail done)
      train.aggregate             (parameter-sync transfer)

Spans come in two flavours: *live* (``begin``/``end`` across simulator
callbacks — there is no call stack to lean on in an event-driven
program, so the handle is explicit) and *retroactive* (``record`` with
both cycles, used by components that already stamp lifecycle cycles on
their request records).

Aggregation is always on and bounded: per-name count/total/max plus a
duration histogram in the attached :class:`MetricsRegistry` under
``span.<name>.cycles``. Full per-span records are optional
(``keep_records=True``) and stored through the existing
:class:`~repro.sim.trace.Tracer`, so the trace tooling (filter,
timeline) works on spans unchanged.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

__all__ = ["Span", "SpanTracer"]

#: Tracer component under which span records are emitted.
SPAN_COMPONENT = "span"


@dataclass
class Span:
    """One named interval of simulated time."""

    span_id: int
    name: str
    start_cycle: float
    parent_id: Optional[int] = None
    end_cycle: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_cycles(self) -> float:
        if self.end_cycle is None:
            raise ValueError(f"span {self.name}#{self.span_id} still open")
        return self.end_cycle - self.start_cycle


class SpanTracer:
    """Collects spans against one simulator clock.

    Args:
        sim: The clock spans are stamped from.
        registry: Duration histograms land here as
            ``span.<name>.cycles`` (optional).
        tracer: Storage for full span records; defaults to an internal
            :class:`Tracer`. Only used when ``keep_records`` is True.
        keep_records: Retain every finished span as a trace record.
            Off by default so long runs stay bounded-memory — the
            per-name aggregates and histograms are always maintained.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        keep_records: bool = False,
    ):
        self.sim = sim
        self.registry = registry
        self.keep_records = keep_records
        self.tracer = tracer if tracer is not None else Tracer(enabled=keep_records)
        self._next_id = 0
        self._open: Dict[int, Span] = {}
        #: name -> [count, total_cycles, max_cycles]
        self._aggregate: Dict[str, list] = {}
        #: name -> the registry's ``span.<name>.cycles`` histogram,
        #: claimed through ``registry.histogram`` on first use.
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Live spans
    # ------------------------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def begin(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        span = Span(
            span_id=self._new_id(),
            name=name,
            start_cycle=self.sim.now,
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        self._open[span.span_id] = span
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        if span.end_cycle is not None:
            raise ValueError(f"span {span.name}#{span.span_id} already ended")
        span.end_cycle = self.sim.now
        span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self._finish(
            span.name, span.span_id, span.parent_id,
            span.start_cycle, span.end_cycle, span.attrs,
        )
        return span

    # ------------------------------------------------------------------
    # Retroactive spans
    # ------------------------------------------------------------------

    def record(
        self,
        name: str,
        start_cycle: float,
        end_cycle: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> None:
        """Record a span whose endpoints were stamped elsewhere (the
        dispatcher's request records already carry lifecycle cycles).

        Aggregation-first: no :class:`Span` is built; the span only
        takes an id, and becomes a trace record under ``keep_records``.
        """
        if end_cycle < start_cycle:
            raise ValueError(
                f"span {name!r} ends before it starts "
                f"({end_cycle} < {start_cycle})"
            )
        self._finish(
            name, self._new_id(),
            parent.span_id if parent is not None else None,
            start_cycle, end_cycle, attrs,
        )

    # ------------------------------------------------------------------
    # Internals + export
    # ------------------------------------------------------------------

    def _finish(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_cycle: float,
        end_cycle: float,
        attrs: Dict[str, Any],
    ) -> None:
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
        if self.keep_records:
            self.tracer.emit(
                start_cycle,
                SPAN_COMPONENT,
                name,
                payload={
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "end_cycle": end_cycle,
                    **attrs,
                },
            )

    @property
    def open_spans(self) -> int:
        return len(self._open)

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
