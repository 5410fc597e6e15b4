"""EquinoxAccelerator facade: installation, load runs, invariants."""

import pytest

from repro.core.equinox import EquinoxAccelerator
from repro.hw.config import AcceleratorConfig


@pytest.fixture
def config():
    # A small-but-realistic point: runs load sweeps in milliseconds.
    return AcceleratorConfig(name="bench", n=8, m=4, w=4, frequency_hz=1e9)


@pytest.fixture
def equinox(config, tiny_model):
    return EquinoxAccelerator(
        config, tiny_model, training_model=tiny_model, training_batch=8,
        chunk_us=0.05,
    )


class TestConstruction:
    def test_batch_slots_default_to_n(self, equinox, config):
        assert equinox.batch_slots == config.n

    def test_inference_weights_reserved(self, equinox, tiny_model):
        operand = equinox.config.encoding_info.bytes_per_operand
        assert equinox.weight_buffer.allocation_of("inference") == pytest.approx(
            tiny_model.weight_bytes(operand)
        )

    def test_training_gets_staging_sliver(self, equinox, config):
        staged = (
            equinox.weight_buffer.allocation_of("training")
            + equinox.activation_buffer.allocation_of("training")
        )
        assert staged == pytest.approx(config.staging_bytes)

    def test_training_with_inference_only_rejected(self, config, tiny_model):
        with pytest.raises(ValueError):
            EquinoxAccelerator(
                config, tiny_model, training_model=tiny_model,
                scheduler="inference_only",
            )

    def test_no_training_model_disables_training(self, config, tiny_model):
        acc = EquinoxAccelerator(config, tiny_model)
        assert acc.training_engine is None
        assert not acc.scheduler.allows_training

    def test_analytic_service_characteristics(self, equinox):
        assert equinox.batch_service_us() > 0
        assert equinox.capacity_requests_per_s() > 0
        assert equinox.peak_inference_top_s() > 0
        assert (
            equinox.peak_inference_top_s()
            <= equinox.config.peak_throughput_top_s
        )


class TestRuns:
    def test_run_completes_all_requests(self, equinox):
        report = equinox.run(load=0.5, requests=40)
        assert report.requests_completed >= 40
        assert report.requests_submitted >= report.requests_completed

    def test_rejects_nonpositive_load(self, equinox):
        with pytest.raises(ValueError):
            equinox.run(load=0.0)

    def test_report_invariants(self, equinox):
        report = equinox.run(load=0.6, requests=48)
        assert report.p99_latency_us >= report.mean_latency_us / 2
        assert report.max_latency_us >= report.p99_latency_us
        assert report.inference_top_s <= equinox.config.peak_throughput_top_s
        assert sum(report.cycle_breakdown.values()) == pytest.approx(1.0)
        assert 0 <= report.dram_utilization <= 1

    def test_meets_target_helper(self, equinox):
        report = equinox.run(load=0.3, requests=24)
        assert report.meets_target(1e12)
        assert not report.meets_target(0.0)

    def test_training_harvests_at_low_load(self, equinox):
        report = equinox.run(load=0.2, requests=40)
        assert report.training_top_s > 0

    def test_run_idle_trains_at_full_tilt(self, config, tiny_model):
        acc = EquinoxAccelerator(
            config, tiny_model, training_model=tiny_model, training_batch=8,
            chunk_us=0.05,
        )
        report = acc.run_idle(duration_s=2e-4)
        assert report.training_top_s > 0
        assert report.requests_completed == 0

    def test_run_records_request_and_training_spans(self, equinox):
        report = equinox.run(load=0.3, requests=40)
        summary = equinox.spans.summary()
        assert {
            "request", "request.queue", "request.execute",
            "train.prefetch", "train.step",
        } <= set(summary)
        assert summary["request"]["count"] == report.requests_completed
        histograms = equinox.obs.snapshot()["histograms"]
        for name, entry in summary.items():
            histogram = histograms[f"span.{name}.cycles"]
            assert histogram["count"] == entry["count"]

    def test_run_idle_rejects_bad_duration(self, equinox):
        with pytest.raises(ValueError):
            equinox.run_idle(0.0)

    def test_deterministic_given_seed(self, config, tiny_model):
        reports = []
        for _ in range(2):
            acc = EquinoxAccelerator(
                config, tiny_model, training_model=tiny_model,
                training_batch=8, chunk_us=0.05,
            )
            reports.append(acc.run(load=0.5, requests=32, seed=42))
        assert reports[0].p99_latency_us == reports[1].p99_latency_us
        assert reports[0].training_top_s == reports[1].training_top_s

    def test_different_seeds_differ(self, config, tiny_model):
        values = set()
        for seed in (1, 2):
            acc = EquinoxAccelerator(
                config, tiny_model, training_model=tiny_model,
                training_batch=8, chunk_us=0.05,
            )
            values.add(acc.run(load=0.5, requests=32, seed=seed).p99_latency_us)
        assert len(values) == 2


class TestSchedulingBehaviour:
    def _run(self, config, tiny_model, scheduler, load):
        acc = EquinoxAccelerator(
            config, tiny_model,
            training_model=tiny_model if scheduler != "inference_only" else None,
            scheduler=scheduler, training_batch=8, chunk_us=0.05,
        )
        return acc.run(load=load, requests=64, seed=3)

    def test_priority_protects_latency_vs_fair_at_high_load(
        self, config, tiny_model
    ):
        fair = self._run(config, tiny_model, "fair", load=0.9)
        priority = self._run(config, tiny_model, "priority", load=0.9)
        assert priority.p99_latency_us <= fair.p99_latency_us

    def test_training_inflates_latency_at_low_load(self, config, tiny_model):
        """Figure 10: both policies stretch inference service time at
        low load by round-robining training into the issue slots."""
        alone = self._run(config, tiny_model, "inference_only", load=0.3)
        with_training = self._run(config, tiny_model, "priority", load=0.3)
        assert with_training.mean_latency_us >= alone.mean_latency_us

    def test_software_scheduler_trains_less_than_hardware(
        self, config, tiny_model
    ):
        software = self._run(config, tiny_model, "software", load=0.6)
        hardware = self._run(config, tiny_model, "priority", load=0.6)
        assert software.training_top_s <= hardware.training_top_s
