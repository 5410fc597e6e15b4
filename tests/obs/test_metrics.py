"""MetricsRegistry: histograms, deferred sources, snapshot contract."""

import json
import math
import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sketch import QuantileSketch


class TestNames:
    def test_metric_names_are_dotted_lowercase(self):
        registry = MetricsRegistry()
        for bad in ("", "Request.Latency", "a..b", "a-b", "a b"):
            with pytest.raises(ValueError):
                Histogram(bad)
            with pytest.raises(ValueError):
                registry.register_source(bad, dict)
        Histogram("request.latency_us.p99")  # valid


def _span_like_samples(seed, n=3000):
    """Zeros, +inf, heavy repeats and well over 256 distinct values."""
    rng = random.Random(seed)
    repeated = [rng.uniform(1.0, 5e4) for _ in range(40)]
    samples = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.05:
            samples.append(0.0)
        elif roll < 0.07:
            samples.append(math.inf)
        elif roll < 0.6:
            samples.append(rng.choice(repeated))
        else:
            samples.append(rng.lognormvariate(5.0, 3.0))
    return samples


class TestBufferedHistogram:
    """``Histogram`` buffers ``value -> count`` and folds on read; every
    read must equal an eagerly fed sketch's."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_buckets", [None, 16])
    def test_reads_equal_an_eager_sketch(self, seed, max_buckets):
        histogram = Histogram("span.cycles")
        eager = QuantileSketch()
        if max_buckets is not None:
            # Histogram takes the default cap; a tiny one drives the
            # order-dependent collapse path.
            histogram._sketch = QuantileSketch(max_buckets=max_buckets)
            eager = QuantileSketch(max_buckets=max_buckets)
        samples = _span_like_samples(seed)
        assert len(set(samples)) > 256
        for index, value in enumerate(samples):
            histogram.observe(value)
            eager.observe(value)
            if index % 700 == 0:
                assert histogram.count == eager.count
                assert histogram.quantile(50) == eager.quantile(50)
        assert histogram.to_dict() == eager.to_dict()
        assert histogram.sketch.to_dict() == eager.to_dict()
        if max_buckets is not None:
            assert len(histogram.sketch._buckets) == max_buckets

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_rejects_nan_and_negatives_in_observe(self, bad):
        histogram = Histogram("span.cycles")
        histogram.observe(3.0)
        with pytest.raises(ValueError):
            histogram.observe(bad)
        assert histogram.count == 1
        assert histogram.sketch.sum == 3.0


class TestRegistry:
    def test_get_or_create_returns_same_histogram(self):
        registry = MetricsRegistry()
        assert registry.histogram("d") is registry.histogram("d")

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.histogram("a.b")
        with pytest.raises(ValueError, match="already registered"):
            registry.register_source("a.b", dict)
        registry.register_source("c", dict)
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("c")

    def test_duplicate_source_rejected(self):
        registry = MetricsRegistry()
        registry.register_source("faults", dict)
        with pytest.raises(ValueError):
            registry.register_source("faults", dict)

    def test_sources_are_read_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"count": 1}
        registry.register_source("latency", lambda: dict(state))
        assert registry.snapshot()["sources"]["latency"] == {"count": 1.0}
        state["count"] = 5
        assert registry.snapshot()["sources"]["latency"] == {"count": 5.0}

    def test_empty_registry_snapshot_keeps_the_v1_layout(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "sources": {},
        }

    def test_snapshot_sections_and_ordering(self):
        registry = MetricsRegistry()
        registry.histogram("z.lat").observe(10.0)
        registry.histogram("a.lat").observe(1.0)
        registry.register_source("src", lambda: {"b": 2, "a": 1})
        snap = registry.snapshot()
        # The v1 artifact layout keeps its empty counter/gauge sections.
        assert list(snap) == ["counters", "gauges", "histograms", "sources"]
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert list(snap["histograms"]) == ["a.lat", "z.lat"]
        assert list(snap["sources"]["src"]) == ["a", "b"]

    def test_snapshot_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.histogram("lat").observe(3.0)
            registry.register_source("s", lambda: {"x": 1})
            return registry.snapshot()

        assert json.dumps(build(), sort_keys=True) == json.dumps(
            build(), sort_keys=True
        )


class TestLegacyCollectorSources:
    """The migration contract: the pre-existing collectors plug in as
    deferred sources with their public APIs unchanged."""

    def test_latency_stats_source(self):
        from repro.sim.stats import LatencyStats

        stats = LatencyStats()
        registry = MetricsRegistry()
        registry.register_source("inference.latency", stats.metrics)
        assert registry.snapshot()["sources"]["inference.latency"] == {
            "count": 0.0
        }
        for v in range(1, 101):
            stats.record(float(v))
        view = registry.snapshot()["sources"]["inference.latency"]
        assert view["count"] == 100.0
        assert view["p99"] == pytest.approx(99.01)

    def test_fault_counters_source(self):
        from repro.faults.counters import FaultCounters

        counters = FaultCounters()
        counters.hbm_retries += 1
        registry = MetricsRegistry()
        registry.register_source("faults", counters.as_dict)
        assert (
            registry.snapshot()["sources"]["faults"]["hbm_retries"] == 1.0
        )

    def test_cycle_accounting_source(self):
        from repro.sim.stats import CycleAccounting

        accounting = CycleAccounting()
        accounting.cycles["working"] += 30.0
        accounting.cycles["dummy"] += 10.0
        registry = MetricsRegistry()
        registry.register_source("mmu.cycles", accounting.metrics)
        view = registry.snapshot()["sources"]["mmu.cycles"]
        assert view["working"] == 30.0
        assert view["busy_total"] == 40.0
