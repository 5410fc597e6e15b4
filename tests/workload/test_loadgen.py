"""Arrival processes."""

import numpy as np
import pytest

from repro.workload.loadgen import (
    FaultyArrivals,
    MixedArrivals,
    PoissonArrivals,
    TraceArrivals,
    UniformArrivals,
)


class TestPoisson:
    def test_mean_gap_matches_rate(self):
        arrivals = PoissonArrivals(rate_per_cycle=0.01, seed=1)
        gaps = [arrivals.next_gap() for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.05)

    def test_exponential_shape(self):
        arrivals = PoissonArrivals(rate_per_cycle=0.01, seed=2)
        gaps = np.array([arrivals.next_gap() for _ in range(20000)])
        # Memoryless: std ≈ mean for an exponential.
        assert np.std(gaps) == pytest.approx(np.mean(gaps), rel=0.1)

    def test_deterministic_per_seed(self):
        a = PoissonArrivals(0.01, seed=7)
        b = PoissonArrivals(0.01, seed=7)
        assert [a.next_gap() for _ in range(10)] == [
            b.next_gap() for _ in range(10)
        ]

    def test_seeds_differ(self):
        a = PoissonArrivals(0.01, seed=1).next_gap()
        b = PoissonArrivals(0.01, seed=2).next_gap()
        assert a != b

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_rejects_nan_rate(self):
        # NaN gaps would reach the simulator as NaN event times.
        with pytest.raises(ValueError, match="arrival rate must be positive"):
            PoissonArrivals(float("nan"))


class TestNextGapsStreamEquality:
    """``next_gaps(n)`` must consume the RNG exactly like n scalar
    draws — the batched admission path in ``core.equinox`` relies on it
    for bit-identical arrival times."""

    def test_poisson_vectorized_equals_scalar(self):
        scalar = PoissonArrivals(0.02, seed=13)
        batched = PoissonArrivals(0.02, seed=13)
        expected = [scalar.next_gap() for _ in range(37)]
        got = batched.next_gaps(37)
        assert got == expected

    def test_poisson_final_rng_state_identical(self):
        scalar = PoissonArrivals(0.02, seed=14)
        batched = PoissonArrivals(0.02, seed=14)
        for _ in range(25):
            scalar.next_gap()
        batched.next_gaps(25)
        assert scalar._rng.bit_generator.state == batched._rng.bit_generator.state
        # and the streams stay merged afterwards
        assert scalar.next_gap() == batched.next_gap()

    def test_mixed_blocks_equal_one_stream(self):
        scalar = PoissonArrivals(0.02, seed=15)
        batched = PoissonArrivals(0.02, seed=15)
        expected = [scalar.next_gap() for _ in range(10)]
        got = batched.next_gaps(3) + [batched.next_gap()] + batched.next_gaps(6)
        assert got == expected

    def test_zero_draws_is_a_no_op(self):
        arrivals = PoissonArrivals(0.02, seed=16)
        state = arrivals._rng.bit_generator.state
        assert arrivals.next_gaps(0) == []
        assert arrivals._rng.bit_generator.state == state

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.02, seed=17).next_gaps(-1)

    def test_uniform_fallback_loop(self):
        arrivals = UniformArrivals(gap_cycles=50.0)
        assert arrivals.next_gaps(4) == [50.0] * 4

    def test_faulty_arrivals_keeps_scalar_fallback(self):
        """FaultyArrivals draws a data-dependent amount of randomness
        per gap, so it must inherit the generic scalar loop — the
        vectorized one-shot draw would desynchronize its streams."""
        from repro.faults.counters import FaultCounters
        from repro.faults.plan import FaultPlan, RequestFaultSpec

        def build():
            plan = FaultPlan(
                seed=5,
                requests=RequestFaultSpec(
                    drop_rate=0.3, delay_rate=0.2, delay_cycles=10.0
                ),
            )
            return FaultyArrivals(
                PoissonArrivals(0.02, seed=18), plan, FaultCounters()
            )

        scalar = build()
        batched = build()
        expected = [scalar.next_gap() for _ in range(20)]
        assert batched.next_gaps(20) == expected
        assert batched.counters.requests_dropped == scalar.counters.requests_dropped


class TestUniform:
    def test_constant_gap(self):
        arrivals = UniformArrivals(gap_cycles=50.0)
        assert [arrivals.next_gap() for _ in range(3)] == [50.0] * 3

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            UniformArrivals(0.0)


class TestMixedArrivals:
    @staticmethod
    def _absolute(stream, count):
        clock, times = 0.0, []
        for _ in range(count):
            clock += stream.next_gap()
            times.append(clock)
        return times

    def test_merge_is_the_sorted_union(self):
        """The compositor emits exactly the union of its component
        streams' arrival times, in order — each component consumes its
        RNG exactly as it would alone."""
        mixed = MixedArrivals([
            PoissonArrivals(0.02, seed=[9, 0]),
            PoissonArrivals(0.05, seed=[9, 1]),
        ])
        expected = sorted(
            self._absolute(PoissonArrivals(0.02, seed=[9, 0]), 120)
            + self._absolute(PoissonArrivals(0.05, seed=[9, 1]), 120)
        )[:80]
        assert self._absolute(mixed, 80) == pytest.approx(
            expected, rel=1e-12
        )

    def test_tags_and_ties_are_deterministic(self):
        """Uniform 30/50-cycle streams collide at 150; the tie breaks
        to the lower stream index."""
        mixed = MixedArrivals([UniformArrivals(30.0), UniformArrivals(50.0)])
        drawn = [mixed.next_tagged() for _ in range(8)]
        assert drawn == [
            (30.0, 0), (20.0, 1), (10.0, 0), (30.0, 0),
            (10.0, 1), (20.0, 0), (30.0, 0), (0.0, 1),
        ]
        assert mixed.last_source == 1

    def test_identical_seeds_merge_identically(self):
        def build():
            return MixedArrivals([
                PoissonArrivals(0.02, seed=[4, 0]),
                PoissonArrivals(0.03, seed=[4, 1]),
            ])

        a, b = build(), build()
        assert [a.next_tagged() for _ in range(60)] == [
            b.next_tagged() for _ in range(60)
        ]

    def test_next_gap_tracks_last_source(self):
        mixed = MixedArrivals([UniformArrivals(30.0), UniformArrivals(50.0)])
        assert mixed.last_source is None
        assert mixed.next_gap() == 30.0
        assert mixed.last_source == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            MixedArrivals([])
        with pytest.raises(ValueError):
            MixedArrivals([UniformArrivals(10.0)], block=0)


class TestTrace:
    def test_replays_and_cycles(self):
        arrivals = TraceArrivals([1.0, 2.0, 3.0])
        gaps = [arrivals.next_gap() for _ in range(7)]
        assert gaps == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceArrivals([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceArrivals([1.0, -2.0])
