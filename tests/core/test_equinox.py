"""EquinoxAccelerator facade: installation, load runs, invariants."""

import dataclasses

import pytest

import repro.core.equinox as equinox_module
from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.hw.buffers import BufferCapacityError
from repro.hw.config import AcceleratorConfig, SRAMBudget
from repro.models.lstm import deepbench_lstm


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

    def test_inference_weights_reserved(self, config, tiny_model):
        acc = EquinoxAccelerator(config, tiny_model)
        operand = config.encoding_info.bytes_per_operand
        assert acc.weight_buffer.allocated_bytes == pytest.approx(
            tiny_model.weight_bytes(operand)
        )

    def test_training_gets_staging_sliver(self, equinox, config, tiny_model):
        alone = EquinoxAccelerator(config, tiny_model)

        def reserved(acc):
            return (
                acc.weight_buffer.allocated_bytes
                + acc.activation_buffer.allocated_bytes
            )

        staged = reserved(equinox) - reserved(alone)
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


class TestInstallReservation:
    """Each installed service reserves its own slice of both buffers."""

    def test_inference_activation_slice(self, config, tiny_model):
        acc = EquinoxAccelerator(config, tiny_model)
        widest = max(layer.k + layer.n_out for layer in tiny_model.layers)
        assert acc.activation_buffer.allocated_bytes == pytest.approx(
            min(config.sram.activation_bytes * 0.5,
                2.0 * acc.batch_slots * widest)
        )

    def test_inference_activation_slice_caps_at_half_the_buffer(
        self, config, tiny_model
    ):
        small = dataclasses.replace(
            config, sram=SRAMBudget(activation_bytes=1000)
        )
        acc = EquinoxAccelerator(small, tiny_model)
        assert acc.activation_buffer.allocated_bytes == 500

    def test_staging_splits_three_to_one(self, equinox, config, tiny_model):
        alone = EquinoxAccelerator(config, tiny_model)
        weight = (equinox.weight_buffer.allocated_bytes
                  - alone.weight_buffer.allocated_bytes)
        activation = (equinox.activation_buffer.allocated_bytes
                      - alone.activation_buffer.allocated_bytes)
        assert weight == pytest.approx(0.75 * config.staging_bytes)
        assert activation == pytest.approx(0.25 * config.staging_bytes)

    def test_activation_refusal_names_the_activation_buffer(
        self, config, tiny_model
    ):
        # 2 % of ~55 MB of SRAM stages training; a quarter of it does
        # not fit in a 200 kB activation buffer.
        small = dataclasses.replace(
            config, sram=SRAMBudget(activation_bytes=200_000)
        )
        with pytest.raises(BufferCapacityError) as refused:
            EquinoxAccelerator(small, tiny_model, training_model=tiny_model)
        message = str(refused.value)
        assert message.startswith(
            "activation buffer cannot install context 'training': "
        )
        assert "(existing allocations: inference=1536 B)" in message

    def test_weight_slice_is_checked_before_activation(
        self, config, tiny_model
    ):
        # Neither training slice fits; the weight buffer refuses first.
        small = dataclasses.replace(
            config,
            sram=SRAMBudget(activation_bytes=20_000, weight_bytes=50_000),
        )
        with pytest.raises(BufferCapacityError) as refused:
            EquinoxAccelerator(small, tiny_model, training_model=tiny_model)
        assert str(refused.value).startswith(
            "weight buffer cannot install context 'training': "
        )


class TestInstallRefusal:
    """An install that oversubscribes on-chip SRAM is refused with the
    buffer, the context, the shortfall and who holds the space."""

    @staticmethod
    def _config(weight_bytes):
        config = equinox_configuration("500us")
        return dataclasses.replace(
            config, sram=dataclasses.replace(config.sram, weight_bytes=weight_bytes)
        )

    def test_inference_weights_that_do_not_fit(self):
        with pytest.raises(BufferCapacityError) as refused:
            EquinoxAccelerator(self._config(1_000_000), deepbench_lstm())
        assert str(refused.value) == (
            "weight buffer cannot install context 'inference': requested "
            "16875520 B but only 1000000 B of 1000000 B remain (existing "
            "allocations: none); short by 15875520 B"
        )

    def test_training_staging_that_does_not_fit(self):
        with pytest.raises(BufferCapacityError) as refused:
            EquinoxAccelerator(
                self._config(17_000_000), deepbench_lstm(),
                training_model=deepbench_lstm(),
            )
        assert str(refused.value) == (
            "weight buffer cannot install context 'training': requested "
            "648708 B but only 124480 B of 17000000 B remain (existing "
            "allocations: inference=16875520 B); short by 524228 B"
        )


class TestRuns:
    def test_run_completes_all_requests(self, equinox):
        report = equinox.run(load=0.5, requests=40)
        assert report.requests_completed >= 40
        assert report.requests_submitted >= report.requests_completed

    def test_rejects_nonpositive_load(self, equinox):
        with pytest.raises(ValueError):
            equinox.run(load=0.0)

    def test_rejects_nan_load(self, equinox):
        with pytest.raises(ValueError, match="load must be positive, got nan"):
            equinox.run(load=float("nan"))
        assert equinox.sim.now == 0.0

    def test_event_budget_stops_a_run(self, equinox, monkeypatch):
        monkeypatch.setattr(equinox_module, "EVENT_BUDGET", 10)
        with pytest.raises(RuntimeError, match="event budget"):
            equinox.run(load=0.5, requests=40)

    def test_event_budget_stops_a_profile(self, equinox, monkeypatch):
        monkeypatch.setattr(equinox_module, "EVENT_BUDGET", 10)
        with pytest.raises(RuntimeError, match="event budget"):
            equinox.run_profile([0.5], dwell_s=1e-4)

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
