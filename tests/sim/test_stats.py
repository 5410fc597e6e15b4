"""Latency, throughput and cycle-accounting collectors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    CYCLE_CATEGORIES,
    CycleAccounting,
    LatencyStats,
    ThroughputMeter,
    inf_aware_percentile,
)


class TestInfAwarePercentile:
    def test_matches_numpy_on_finite_samples(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0, 25, 50, 90, 99, 100):
            assert inf_aware_percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_regression_two_inf_sentinels_no_longer_nan(self):
        """Regression: with >=2 inf samples the p99 interpolation step
        has two infinite endpoints and np.percentile computes
        inf - inf = nan. The inf-aware version resolves it to inf."""
        values = [1.0] * 98 + [math.inf, math.inf]
        with np.errstate(invalid="ignore"):
            assert math.isnan(float(np.percentile(values, 99)))  # old bug
        assert inf_aware_percentile(values, 99) == math.inf

    def test_rank_interpolating_toward_inf_is_inf(self):
        # position 98.01 sits between the last finite sample and inf:
        # any non-zero weight on the infinite endpoint means inf.
        values = [1.0] * 99 + [math.inf]
        assert inf_aware_percentile(values, 99) == math.inf

    def test_rank_exactly_on_finite_sample_stays_finite(self):
        # 5 samples: position at q=50 is exactly index 2 (no fraction).
        values = [1.0, 2.0, 3.0, math.inf, math.inf]
        assert inf_aware_percentile(values, 50) == 3.0

    def test_finite_region_unaffected_by_the_tail(self):
        finite = [float(v) for v in range(1, 81)]
        with_tail = finite + [math.inf] * 20
        # q low enough that both interpolation endpoints stay finite.
        assert inf_aware_percentile(with_tail, 50) == pytest.approx(
            float(np.percentile(with_tail, 50))
        )

    def test_all_inf(self):
        assert inf_aware_percentile([math.inf, math.inf], 50) == math.inf

    def test_rejects_nan_samples(self):
        with pytest.raises(ValueError):
            inf_aware_percentile([1.0, math.nan], 50)

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            inf_aware_percentile([], 50)
        with pytest.raises(ValueError):
            inf_aware_percentile([1.0], 101)

    @given(
        st.lists(st.floats(0, 1e9), min_size=1, max_size=100),
        st.integers(0, 5),
    )
    def test_deterministic_and_never_nan_with_inf_mixed_in(
        self, values, inf_count
    ):
        mixed = values + [math.inf] * inf_count
        for q in (50.0, 99.0, 99.9):
            result = inf_aware_percentile(mixed, q)
            assert not math.isnan(result)
            assert result == inf_aware_percentile(mixed, q)

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=100))
    def test_equals_numpy_when_all_finite(self, values):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert inf_aware_percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), nan_ok=False
            )


class TestLatencyStats:
    def test_percentile_of_known_distribution(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.record(float(v))
        assert stats.percentile(50) == pytest.approx(50.5)
        assert stats.p99() == pytest.approx(99.01)

    def test_mean_and_max(self):
        stats = LatencyStats()
        for v in (1.0, 2.0, 9.0):
            stats.record(v)
        assert stats.mean() == pytest.approx(4.0)
        assert stats.max() == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyStats().p99()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1.0)

    def test_rejects_nan_sample(self):
        with pytest.raises(ValueError):
            LatencyStats().record(math.nan)

    def test_inf_sentinels_give_deterministic_percentiles(self):
        stats = LatencyStats()
        for v in range(1, 99):
            stats.record(float(v))
        stats.record(math.inf)
        stats.record(math.inf)
        assert stats.percentile(50) == pytest.approx(50.5)
        assert stats.p99() == math.inf
        assert not math.isnan(stats.p99())

    def test_samples_since_window(self):
        stats = LatencyStats()
        for v in (1.0, 2.0, 3.0):
            stats.record(v)
        assert stats.samples_since(1) == [2.0, 3.0]

    def test_metrics_source_view(self):
        stats = LatencyStats()
        assert stats.metrics() == {"count": 0.0}
        for v in range(1, 101):
            stats.record(float(v))
        view = stats.metrics()
        assert view["count"] == 100.0
        assert view["p50"] == pytest.approx(50.5)
        assert view["p99"] == pytest.approx(99.01)
        assert view["max"] == 100.0

    @given(st.lists(st.floats(0, 1e9), min_size=1, max_size=200))
    def test_percentiles_bounded_by_extremes(self, values):
        stats = LatencyStats()
        for v in values:
            stats.record(v)
        assert min(values) <= stats.p99() <= max(values)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=100))
    def test_percentiles_monotone_in_q(self, values):
        stats = LatencyStats()
        for v in values:
            stats.record(v)
        assert stats.percentile(50) <= stats.percentile(90) <= stats.percentile(99)


class TestThroughputMeter:
    def test_top_s_conversion(self):
        meter = ThroughputMeter()
        meter.total_ops = 1e9
        # 1e9 ops over 1e6 cycles at 1 GHz = 1e12 op/s = 1 TOp/s.
        assert meter.top_s(1e6, 1e9) == pytest.approx(1.0)

    def test_zero_horizon(self):
        assert ThroughputMeter().ops_per_cycle(0) == 0.0


class TestCycleAccounting:
    def test_breakdown_sums_to_one(self):
        acct = CycleAccounting()
        acct.cycles.update(working=30, dummy=20, other=10)
        breakdown = acct.breakdown(100)
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["idle"] == pytest.approx(0.4)

    def test_categories_match_figure8(self):
        acct = CycleAccounting()
        breakdown = acct.breakdown(10)
        assert set(breakdown) == set(CYCLE_CATEGORIES)

    def test_idle_cannot_be_recorded(self):
        # Idle cycles are derived by ``breakdown``; there is no bucket.
        with pytest.raises(KeyError):
            CycleAccounting().cycles["idle"] += 1

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            CycleAccounting().cycles["sleeping"] += 1

    def test_overflow_detected(self):
        acct = CycleAccounting()
        acct.cycles["working"] += 200
        with pytest.raises(ValueError):
            acct.breakdown(100)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            CycleAccounting().breakdown(0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["working", "dummy", "other"]),
                st.floats(0, 100),
            ),
            max_size=30,
        )
    )
    def test_breakdown_always_normalized(self, entries):
        acct = CycleAccounting()
        for category, cycles in entries:
            acct.cycles[category] += cycles
        window = max(acct.busy_total(), 1.0) * 2
        breakdown = acct.breakdown(window)
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in breakdown.values())
