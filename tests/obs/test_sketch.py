"""QuantileSketch: accuracy guarantees, merging, sentinel handling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs.sketch import QuantileSketch


def _exact_nearest_rank(values, q):
    """The order statistic the sketch's rank convention targets."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _lognormal_samples(n=20_000, seed=7):
    rng = np.random.RandomState(seed)
    # Latency-shaped: long right tail spanning several decades.
    return np.exp(rng.normal(loc=3.0, scale=1.2, size=n)).tolist()


class TestAccuracy:
    @pytest.mark.parametrize("q", [50.0, 90.0, 99.0, 99.9])
    def test_within_relative_accuracy_of_exact_rank(self, q):
        accuracy = 0.01
        sketch = QuantileSketch(relative_accuracy=accuracy)
        values = _lognormal_samples()
        sketch.observe_many(values)
        exact = _exact_nearest_rank(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) <= accuracy * exact

    @pytest.mark.parametrize("q", [50.0, 99.0, 99.9])
    def test_close_to_numpy_percentile(self, q):
        """np.percentile interpolates while the sketch is nearest-rank,
        so the comparison is loose — but on 20k samples the two
        conventions sit well within a few relative-accuracy widths."""
        accuracy = 0.005
        sketch = QuantileSketch(relative_accuracy=accuracy)
        values = _lognormal_samples()
        sketch.observe_many(values)
        reference = float(np.percentile(values, q))
        assert abs(sketch.quantile(q) - reference) <= 5 * accuracy * reference

    def test_exact_summary_statistics(self):
        sketch = QuantileSketch()
        values = [1.0, 2.0, 3.5, 10.0]
        sketch.observe_many(values)
        assert sketch.count == 4
        assert sketch.min == 1.0
        assert sketch.max == 10.0
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.mean() == pytest.approx(sum(values) / 4)

    @given(st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=300))
    def test_quantiles_bounded_by_extremes(self, values):
        sketch = QuantileSketch(relative_accuracy=0.01)
        sketch.observe_many(values)
        low, high = min(values), max(values)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert 0.99 * low <= sketch.quantile(q) <= 1.01 * high

    @given(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=200))
    def test_quantiles_monotone_in_q(self, values):
        sketch = QuantileSketch()
        sketch.observe_many(values)
        assert (
            sketch.quantile(50) <= sketch.quantile(90) <= sketch.quantile(99)
        )


class TestSentinels:
    def test_inf_lands_in_the_tail(self):
        sketch = QuantileSketch()
        sketch.observe_many([1.0] * 98 + [math.inf, math.inf])
        assert sketch.quantile(50) == pytest.approx(1.0, rel=0.01)
        assert sketch.quantile(99.9) == math.inf
        assert sketch.inf_count == 2
        assert sketch.max == math.inf

    def test_zero_has_its_own_bucket(self):
        sketch = QuantileSketch()
        sketch.observe_many([0.0, 0.0, 0.0, 5.0])
        assert sketch.quantile(50) == 0.0
        assert sketch.quantile(100) == pytest.approx(5.0, rel=0.01)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            QuantileSketch().observe(math.nan)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QuantileSketch().observe(-1.0)

    def test_empty_sketch_raises(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(50)


class TestBoundedMemory:
    def test_bucket_cap_holds(self):
        sketch = QuantileSketch(relative_accuracy=0.001, max_buckets=32)
        sketch.observe_many(_lognormal_samples(n=5000))
        assert len(sketch._buckets) <= 32

    def test_collapse_only_degrades_the_low_end(self):
        """Collapsing folds the smallest buckets upward: the p99 of a
        wide distribution survives a tiny bucket budget."""
        tight = QuantileSketch(relative_accuracy=0.01)
        capped = QuantileSketch(relative_accuracy=0.01, max_buckets=64)
        values = _lognormal_samples(n=10_000)
        tight.observe_many(values)
        capped.observe_many(values)
        assert capped.quantile(99) == pytest.approx(
            tight.quantile(99), rel=0.02
        )


    @pytest.mark.parametrize("seed", range(20))
    def test_collapse_does_not_depend_on_order(self, seed):
        """What lets a buffered histogram fold its samples in any order
        and still match the sketch fed one at a time."""
        rng = np.random.RandomState(seed)
        values = (10.0 ** rng.uniform(0, 4, size=60)).tolist()
        values += rng.choice(values, size=60).tolist()
        shuffled = list(values)
        rng.shuffle(shuffled)
        sketches = [QuantileSketch(max_buckets=4) for _ in range(2)]
        for sketch, order in zip(sketches, (values, shuffled)):
            sketch.observe_many(order)
        assert sketches[0]._buckets == sketches[1]._buckets
        assert sketches[0].to_dict() == sketches[1].to_dict()


class TestMerge:
    def test_merge_equals_union(self):
        left, right, union = (
            QuantileSketch(), QuantileSketch(), QuantileSketch()
        )
        a = _lognormal_samples(n=3000, seed=1)
        b = _lognormal_samples(n=3000, seed=2)
        left.observe_many(a)
        right.observe_many(b)
        union.observe_many(a + b)
        left.merge(right)
        assert left.count == union.count
        # Bucket counts are integers, so quantiles match exactly; the
        # running sum only differs by float addition order.
        for q in (50.0, 99.0, 99.9):
            assert left.quantile(q) == union.quantile(q)
        assert left.min == union.min and left.max == union.max
        assert left.sum == pytest.approx(union.sum)

    def test_repeated_observe_is_exact(self):
        """``observe(v, count)`` folds ``count`` samples exactly: the
        rounded ``v * count`` lost the low bits of this sum."""
        grouped, single = QuantileSketch(), QuantileSketch()
        grouped.observe(117.91870367106105, 50)
        for _ in range(50):
            single.observe(117.91870367106105)
        for sketch in (grouped, single):
            sketch.observe(4.4949106478873815e-11)
        assert single.sum == 5895.935183553098
        assert grouped.sum == single.sum
        assert grouped.to_dict() == single.to_dict()

    def test_merge_rejects_accuracy_mismatch(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.01).merge(
                QuantileSketch(relative_accuracy=0.02)
            )


class TestExport:
    def test_to_dict_is_deterministic(self):
        def build():
            sketch = QuantileSketch()
            sketch.observe_many(_lognormal_samples(n=2000))
            sketch.observe(math.inf)
            return sketch.to_dict()

        assert json.dumps(build(), sort_keys=True) == json.dumps(
            build(), sort_keys=True
        )

    def test_empty_to_dict(self):
        assert QuantileSketch().to_dict() == {"count": 0.0}
