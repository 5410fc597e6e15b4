"""QuantileSketch: accuracy guarantees, merging, sentinel handling."""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exec.canonical import canonical_json
from repro.obs.metrics import Histogram
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


def _ingest_corpus(seed):
    """Zeros, +inf, heavy repeats and > 256 distinct latency-like values."""
    rng = random.Random(seed)
    values = []
    for _ in range(3000):
        draw = rng.random()
        if draw < 0.05:
            values.append(0.0)
        elif draw < 0.08:
            values.append(math.inf)
        elif draw < 0.3:
            values.append(rng.choice([1.0, 2.5, 1e-3, 7.0, 1e6]))
        else:
            values.append(rng.lognormvariate(3.0, 4.0))
    return values


class TestOneIngestLoop:
    """``observe``, ``observe_many`` and ``Histogram``'s buffer fold share
    one ingest loop; each leaves the lossless state (buckets, counts,
    min, max and the expansion's partials) it left when each was a loop
    of per-value ``observe`` calls: sha256 of the canonical JSON of the
    three ``to_state()`` dumps, pinned."""

    PINS = {
        (0, None):
            "1855096aa2d4eaea83967b93b04d52e32c6f28ef10251d9a424388eb7cbe3741",
        (0, 16):
            "3f798c79b82ca8e9059635929b0dcc1f64451863590de67331c06f8a5913c862",
        (1, None):
            "3f2165b9822724e05b005991fb499c7df09cd7de1ab2957cea5e41335110b92f",
        (1, 16):
            "5fa03476e3e30a5eea7e33f2f21e26857ce57452a515405cb839e54bb6756f37",
        (2, None):
            "f492ec1af4930ad82c277d94069fd261949944706a8f622b0fc716793e9af1d4",
        (2, 16):
            "ee5aa999c982e5e1a1b43ad7703e04a94d186796d4956c5dec99c4350e9475ec",
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("max_buckets", [None, 16])
    def test_states_match_their_pins(self, seed, max_buckets):
        def sketch():
            if max_buckets is None:
                return QuantileSketch()
            return QuantileSketch(max_buckets=max_buckets)

        values = _ingest_corpus(seed)
        assert len(set(values)) > 256
        eager, many = sketch(), sketch()
        for value in values:
            eager.observe(value)
        many.observe_many(values)
        histogram = Histogram("span.cycles")
        histogram._sketch = sketch()
        for value in values:
            histogram.observe(value)
        if max_buckets is not None:
            assert len(eager._buckets) == max_buckets  # it collapsed
        states = {
            "observe": eager.to_state(),
            "observe_many": many.to_state(),
            "fold": histogram.sketch.to_state(),
        }
        digest = hashlib.sha256(canonical_json(states).encode()).hexdigest()
        assert digest == self.PINS[(seed, max_buckets)]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_observe_many_checks_every_value(self, bad):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.observe_many([1.0, bad])
