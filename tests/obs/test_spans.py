"""SpanTracer: recorded spans, per-name aggregation, histograms."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.spans import SpanTracer


class TestRecord:
    def test_record_with_stamped_endpoints(self):
        tracer = SpanTracer()
        tracer.record("request.execute", 10.0, 25.0)
        tracer.record("request.execute", 30.0, 35.0)
        summary = tracer.summary()["request.execute"]
        assert summary["count"] == 2.0
        assert summary["total_cycles"] == 20.0
        assert summary["max_cycles"] == 15.0

    def test_record_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            SpanTracer().record("bad", 10.0, 5.0)

    def test_record_returns_nothing(self):
        assert SpanTracer().record("request", 0.0, 1.0) is None

    def test_zero_length_span_counts(self):
        tracer = SpanTracer()
        tracer.record("train.prefetch", 7.0, 7.0)
        assert tracer.summary()["train.prefetch"] == {
            "count": 1.0,
            "total_cycles": 0.0,
            "mean_cycles": 0.0,
            "max_cycles": 0.0,
        }

    def test_without_a_registry_only_the_summary_is_kept(self):
        tracer = SpanTracer()
        tracer.record("request", 0.0, 3.0)
        tracer.record("request", 1.0, 2.0)
        assert tracer.summary()["request"]["count"] == 2.0
        assert tracer.summary()["request"]["max_cycles"] == 3.0


class TestAggregation:
    #: (name, start, end) in recording order.
    SPANS = [
        ("request.queue", 0.0, 4.0),
        ("train.prefetch", 1.0, 3.5),
        ("train.prefetch", 2.0, 2.0),
        ("request.execute", 6.0, 9.0),
        ("request.queue", 5.0, 12.0),
        ("request", 0.0, 12.0),
    ]

    def test_summary_names_sorted(self):
        tracer = SpanTracer()
        tracer.record("train.step", 0.0, 1.0)
        tracer.record("request", 0.0, 1.0)
        assert list(tracer.summary()) == ["request", "train.step"]

    def test_durations_feed_registry_histograms(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(registry=registry)
        tracer.record("request.queue", 0.0, 4.0)
        tracer.record("request.queue", 0.0, 8.0)
        histogram = registry.histogram("span.request.queue.cycles")
        assert histogram.count == 2
        assert histogram.quantile(100) == pytest.approx(8.0, rel=0.02)

    def test_summary_and_histograms_match_the_recorded_spans(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(registry=registry)
        durations = {}
        for name, start, end in self.SPANS:
            tracer.record(name, start, end)
            durations.setdefault(name, []).append(end - start)
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

    def test_one_histogram_per_span_name(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(registry=registry)
        for name, start, end in self.SPANS:
            tracer.record(name, start, end)
        assert list(registry.snapshot()["histograms"]) == [
            "span.request.cycles",
            "span.request.execute.cycles",
            "span.request.queue.cycles",
            "span.train.prefetch.cycles",
        ]

    def test_histogram_kind_claim_still_enforced(self):
        registry = MetricsRegistry()
        registry.register_source("span.x.cycles", dict)
        tracer = SpanTracer(registry=registry)
        with pytest.raises(ValueError, match="already registered"):
            tracer.record("x", 0.0, 1.0)
