"""Cross-module integration: the paper's claims at test scale.

These tests run the full stack — DSE-selected configurations, compiled
DeepBench models, the event-driven datapath, the Equinox front-end —
and assert the *shapes* the paper reports. They use reduced request
counts so the whole module stays under a minute.
"""

import pytest

from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.models.lstm import deepbench_lstm
from repro.models.training import build_training_plan


def _run(latency_class, load, training=False, scheduler="priority",
         batching="adaptive", batches=6, seed=0, **kwargs):
    config = equinox_configuration(latency_class)
    acc = EquinoxAccelerator(
        config, deepbench_lstm(),
        training_model=deepbench_lstm() if training else None,
        scheduler=scheduler if training else "inference_only",
        batching=batching, **kwargs,
    )
    report = acc.run(
        load=load, requests=max(400, batches * acc.batch_slots), seed=seed
    )
    return acc, report


class TestInferencePerformance:
    """Figure 7 shapes."""

    def test_relaxed_design_reaches_about_6x_min_throughput(self):
        _, slow = _run("min", load=0.95, batches=40)
        _, fast = _run("500us", load=0.95)
        ratio = fast.inference_top_s / slow.inference_top_s
        assert 4.0 <= ratio <= 8.0  # paper: ~6x in simulation

    def test_measured_throughput_below_analytic_peak(self):
        acc, report = _run("500us", load=0.95)
        # Useful ops of full batches at MMU saturation.
        program = acc.inference_program
        peak_top_s = (
            acc.batch_slots * program.useful_ops_per_row
            / program.total_mmu_cycles * acc.config.frequency_hz / 1e12
        )
        assert report.inference_top_s <= peak_top_s * 1.01

    def test_low_load_p99_bounded_by_formation_timeout(self):
        """At low load the 500µs design's p99 is the adaptive-batching
        wait plus the service time, not an open queue."""
        acc, report = _run("500us", load=0.1)
        timeout = 2.0 * acc.batch_service_us()
        service = acc.batch_service_us()
        assert report.p99_latency_us <= timeout + 2.5 * service

    def test_latency_target_met_across_loads(self):
        reference = EquinoxAccelerator(
            equinox_configuration("500us"), deepbench_lstm()
        )
        target_us = 10.0 * reference.batch_service_us()
        for load in (0.3, 0.7):
            _, report = _run("500us", load=load)
            assert report.p99_latency_us <= target_us


class TestCycleBreakdown:
    """Figure 8 shapes."""

    def test_low_load_is_mostly_idle_and_dummy(self):
        _, report = _run("500us", load=0.05)
        breakdown = report.cycle_breakdown
        assert breakdown["idle"] > 0.25
        assert breakdown["dummy"] > 0.2
        assert breakdown["working"] < 0.25

    def test_training_reclaims_idle(self):
        _, without = _run("500us", load=0.05)
        _, with_training = _run("500us", load=0.05, training=True)
        assert (
            with_training.cycle_breakdown["idle"]
            < without.cycle_breakdown["idle"] - 0.1
        )

    def test_saturation_starves_training(self):
        _, low = _run("500us", load=0.3, training=True, batches=10)
        _, high = _run("500us", load=1.05, training=True, batches=10)
        assert high.training_top_s < low.training_top_s / 2


class TestTrainingThroughput:
    """Figure 9 / Table 2 shapes."""

    def test_500us_harvests_most_of_dedicated_at_60pct(self):
        config = equinox_configuration("500us")
        dedicated = build_training_plan(
            deepbench_lstm(), config
        ).dedicated_throughput_top_s()
        _, report = _run("500us", load=0.6, training=True, batches=10)
        fraction = report.training_top_s / dedicated
        assert 0.45 <= fraction <= 1.0  # paper: 78%

    def test_min_design_harvests_little(self):
        config = equinox_configuration("none")
        dedicated = build_training_plan(
            deepbench_lstm(), config
        ).dedicated_throughput_top_s()
        _, report = _run("min", load=0.6, training=True, batches=60)
        assert report.training_top_s / dedicated < 0.35  # paper: 19%

    def test_training_declines_with_load(self):
        values = []
        for load in (0.2, 0.6, 0.95):
            _, report = _run("500us", load=load, training=True, batches=8)
            values.append(report.training_top_s)
        assert values[0] > values[1] > values[2]


class TestScheduling:
    """Figure 10 shapes."""

    def test_priority_beats_fair_on_tail_latency_under_pressure(self):
        """The policies only diverge when the inference queue spikes
        past the threshold: under pressure, priority stops training and
        holds the tail down while fair keeps splitting issue slots."""
        _, fair = _run("500us", load=1.1, training=True, scheduler="fair",
                       batches=14)
        _, priority = _run("500us", load=1.1, training=True,
                           scheduler="priority", batches=14)
        assert priority.p99_latency_us < fair.p99_latency_us
        assert priority.inference_top_s >= fair.inference_top_s

    def test_priority_matches_inference_only_throughput(self):
        _, alone = _run("500us", load=0.9, batches=10)
        _, piggy = _run("500us", load=0.9, training=True, batches=10)
        assert piggy.inference_top_s >= 0.9 * alone.inference_top_s


class TestAdaptiveBatching:
    """Figure 11 shapes."""

    def test_static_batching_blows_up_at_low_load(self):
        _, static = _run("500us", load=0.15, batching="static")
        _, adaptive = _run("500us", load=0.15, batching="adaptive")
        assert static.p99_latency_us > 2 * adaptive.p99_latency_us

    def test_policies_converge_at_high_load(self):
        _, static = _run("500us", load=0.95, batching="static")
        _, adaptive = _run("500us", load=0.95, batching="adaptive")
        assert static.p99_latency_us == pytest.approx(
            adaptive.p99_latency_us, rel=0.5
        )

    def test_larger_threshold_raises_low_load_p99(self):
        _, tight = _run("500us", load=0.2, batch_timeout_x=2.0)
        _, loose = _run("500us", load=0.2, batch_timeout_x=10.0)
        assert loose.p99_latency_us > tight.p99_latency_us

    def test_few_incomplete_batches_at_high_load(self):
        _, report = _run("500us", load=0.95, batches=12)
        assert report.incomplete_batches <= 0.25 * report.batches_completed
