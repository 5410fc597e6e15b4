"""SpanTracer: live and retroactive spans, aggregation, hierarchy."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.spans import SpanTracer
from repro.sim.trace import Tracer


class TestLiveSpans:
    def test_begin_end_measures_simulated_time(self, sim):
        tracer = SpanTracer(sim)
        holder = {}
        sim.at(5, lambda: holder.setdefault("span", tracer.begin("request")))
        sim.at(12, lambda: tracer.end(holder["span"]))
        sim.run()
        summary = tracer.summary()
        assert summary["request"] == {
            "count": 1.0,
            "total_cycles": 7.0,
            "mean_cycles": 7.0,
            "max_cycles": 7.0,
        }

    def test_open_spans_tracked_until_ended(self, sim):
        tracer = SpanTracer(sim)
        span = tracer.begin("request")
        assert tracer.open_spans == 1
        tracer.end(span)
        assert tracer.open_spans == 0

    def test_double_end_raises(self, sim):
        tracer = SpanTracer(sim)
        span = tracer.begin("request")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_duration_requires_an_end(self, sim):
        span = SpanTracer(sim).begin("request")
        with pytest.raises(ValueError):
            _ = span.duration_cycles

    def test_parent_linkage(self, sim):
        tracer = SpanTracer(sim)
        parent = tracer.begin("request")
        child = tracer.begin("request.queue", parent=parent)
        assert child.parent_id == parent.span_id


class TestRetroactiveSpans:
    def test_record_with_stamped_endpoints(self, sim):
        tracer = SpanTracer(sim)
        tracer.record("request.execute", 10.0, 25.0)
        tracer.record("request.execute", 30.0, 35.0)
        summary = tracer.summary()["request.execute"]
        assert summary["count"] == 2.0
        assert summary["total_cycles"] == 20.0
        assert summary["max_cycles"] == 15.0

    def test_record_rejects_negative_duration(self, sim):
        with pytest.raises(ValueError):
            SpanTracer(sim).record("bad", 10.0, 5.0)


class TestAggregation:
    def test_summary_names_sorted(self, sim):
        tracer = SpanTracer(sim)
        tracer.record("train.step", 0.0, 1.0)
        tracer.record("request", 0.0, 1.0)
        assert list(tracer.summary()) == ["request", "train.step"]

    def test_durations_feed_registry_histograms(self, sim):
        registry = MetricsRegistry()
        tracer = SpanTracer(sim, registry=registry)
        tracer.record("request.queue", 0.0, 4.0)
        tracer.record("request.queue", 0.0, 8.0)
        histogram = registry.histogram("span.request.queue.cycles")
        assert histogram.count == 2
        assert histogram.quantile(100) == pytest.approx(8.0, rel=0.02)

    def test_records_off_by_default(self, sim):
        tracer = SpanTracer(sim)
        tracer.record("request", 0.0, 1.0)
        assert tracer.tracer.records == []

    def test_keep_records_emits_trace_records(self, sim):
        storage = Tracer(enabled=True)
        tracer = SpanTracer(sim, tracer=storage, keep_records=True)
        parent = tracer.begin("request")
        sim.now = 3.0
        tracer.end(parent, batch=2)
        records = storage.filter(component="span")
        assert len(records) == 1
        assert records[0].component == "span"
        assert records[0].payload["end_cycle"] == 3.0
        assert records[0].payload["batch"] == 2


class TestRecordPath:
    """``begin``/``end`` and ``record`` share one aggregation path: the
    same summaries, histograms, id sequence and trace payloads whether a
    span was live or retroactive."""

    #: (name, duration) in finishing order for :meth:`_drive`.
    DURATIONS = [
        ("request.queue", 4.0),
        ("train.prefetch", 2.5),
        ("train.prefetch", 0.0),
        ("request.execute", 3.0),
        ("request.queue", 7.0),
        ("request", 12.0),
    ]

    @staticmethod
    def _drive(sim, keep_records):
        registry = MetricsRegistry()
        storage = Tracer(enabled=keep_records)
        tracer = SpanTracer(
            sim, registry=registry, tracer=storage, keep_records=keep_records
        )
        root = tracer.begin("request")  # id 0 at cycle 0
        tracer.record("request.queue", 0.0, 4.0, parent=root, batch=1)  # 1
        sim.now = 6.0
        child = tracer.begin("request.execute", parent=root, lane=2)  # 2
        tracer.record("train.prefetch", 1.0, 3.5)  # 3
        tracer.record("train.prefetch", 2.0, 2.0)  # 4
        sim.now = 9.0
        tracer.end(child, rows=8)
        tracer.record("request.queue", 5.0, 12.0, parent=root)  # 5
        sim.now = 12.0
        tracer.end(root)
        return tracer, registry, storage

    @pytest.mark.parametrize("keep_records", [False, True])
    def test_mixed_sequence_aggregates(self, sim, keep_records):
        tracer, registry, storage = self._drive(sim, keep_records)
        durations = {}
        for name, duration in self.DURATIONS:
            durations.setdefault(name, []).append(duration)
        assert tracer.summary() == {
            name: {
                "count": float(len(values)),
                "total_cycles": sum(values),
                "mean_cycles": sum(values) / len(values),
                "max_cycles": max(values),
            }
            for name, values in sorted(durations.items())
        }
        for name, values in durations.items():
            sketch = QuantileSketch()
            for value in values:
                sketch.observe(value)
            histogram = registry.histogram(f"span.{name}.cycles")
            assert histogram.to_dict() == sketch.to_dict()
        assert tracer._next_id == 6
        if not keep_records:
            assert storage.records == []

    def test_mixed_sequence_payloads(self, sim):
        _, _, storage = self._drive(sim, keep_records=True)
        assert [
            (r.cycle, r.component, r.event, r.payload) for r in storage.records
        ] == [
            (0.0, "span", "request.queue",
             {"span_id": 1, "parent_id": 0, "end_cycle": 4.0, "batch": 1}),
            (1.0, "span", "train.prefetch",
             {"span_id": 3, "parent_id": None, "end_cycle": 3.5}),
            (2.0, "span", "train.prefetch",
             {"span_id": 4, "parent_id": None, "end_cycle": 2.0}),
            (6.0, "span", "request.execute",
             {"span_id": 2, "parent_id": 0, "end_cycle": 9.0,
              "lane": 2, "rows": 8}),
            (5.0, "span", "request.queue",
             {"span_id": 5, "parent_id": 0, "end_cycle": 12.0}),
            (0.0, "span", "request",
             {"span_id": 0, "parent_id": None, "end_cycle": 12.0}),
        ]

    def test_record_returns_nothing(self, sim):
        assert SpanTracer(sim).record("request", 0.0, 1.0) is None

    def test_histogram_kind_claim_still_enforced(self, sim):
        registry = MetricsRegistry()
        registry.counter("span.x.cycles")
        tracer = SpanTracer(sim, registry=registry)
        with pytest.raises(ValueError, match="already registered"):
            tracer.record("x", 0.0, 1.0)
