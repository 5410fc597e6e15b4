"""MetricsRegistry: instruments, deferred sources, snapshot contract."""

import json
import math
import random

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sketch import QuantileSketch


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("requests.completed")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4.0

    def test_counter_is_monotone(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_set_and_track_max(self):
        gauge = Gauge("queue.depth")
        gauge.set(3)
        gauge.track_max(7)
        gauge.track_max(2)
        assert gauge.value == 7.0

    def test_gauge_rejects_nan(self):
        with pytest.raises(ValueError):
            Gauge("x").set(math.nan)

    def test_metric_names_are_dotted_lowercase(self):
        for bad in ("", "Request.Latency", "a..b", "a-b", "a b"):
            with pytest.raises(ValueError):
                Counter(bad)
        Counter("request.latency_us.p99")  # valid


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
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("c") is registry.gauge("c")
        assert registry.histogram("d") is registry.histogram("d")

    def test_kind_collision_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.histogram("a.b")
        with pytest.raises(ValueError):
            registry.register_source("a.b", dict)

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

    def test_snapshot_sections_and_ordering(self):
        registry = MetricsRegistry()
        registry.counter("z.second").inc()
        registry.counter("a.first").inc(2)
        registry.gauge("depth").set(4)
        registry.histogram("lat").observe(10.0)
        registry.register_source("src", lambda: {"b": 2, "a": 1})
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms", "sources"]
        assert list(snap["counters"]) == ["a.first", "z.second"]
        assert list(snap["sources"]["src"]) == ["a", "b"]

    def test_snapshot_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("ops").inc(7)
            registry.histogram("lat").observe(3.0)
            registry.register_source("s", lambda: {"x": 1})
            return registry.snapshot()

        assert json.dumps(build(), sort_keys=True) == json.dumps(
            build(), sort_keys=True
        )

    def test_flat_view(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(2)
        registry.gauge("depth").set(3)
        registry.register_source("src", lambda: {"leaf": 4})
        registry.histogram("lat").observe(1.0)
        flat = registry.flat()
        assert flat["ops"] == 2.0
        assert flat["depth"] == 3.0
        assert flat["src.leaf"] == 4.0
        assert flat["lat.count"] == 1.0


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
        accounting.add("working", 30.0)
        accounting.add("dummy", 10.0)
        registry = MetricsRegistry()
        registry.register_source("mmu.cycles", accounting.metrics)
        view = registry.snapshot()["sources"]["mmu.cycles"]
        assert view["working"] == 30.0
        assert view["busy_total"] == 40.0
