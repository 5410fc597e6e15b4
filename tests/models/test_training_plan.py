"""Training plans and the dedicated-accelerator reference."""

import pytest

from repro.models.training import DRAM_STREAM_EFFICIENCY, build_training_plan
from repro.models.lstm import deepbench_lstm


class TestTrainingPlan:
    @pytest.fixture
    def plan(self, small_config):
        return build_training_plan(
            deepbench_lstm(hidden=256, steps=4), small_config, batch=16
        )

    def test_dedicated_is_min_of_bounds(self, plan, small_config):
        slower = max(plan.compute_cycles(), plan.dram_cycles())
        assert plan.dedicated_iteration_cycles() == slower
        seconds = small_config.cycles_to_seconds(slower)
        assert plan.dedicated_throughput_top_s() == pytest.approx(
            plan.ops_per_iteration / seconds / 1e12, rel=1e-6
        )

    def test_dedicated_below_peak(self, plan, small_config):
        # Tiling losses keep useful throughput under Eq. 3 peak.
        assert plan.dedicated_throughput_top_s() <= small_config.peak_throughput_top_s

    def test_plan_reads_the_compiled_program(self, plan):
        program = plan.program
        assert plan.compute_cycles() == program.total_mmu_cycles > 0
        assert plan.ops_per_iteration == program.total_useful_ops > 0
        assert plan.dram_bytes_per_iteration == program.total_dram_bytes > 0

    def test_compute_scales_with_batch_and_weight_traffic_does_not(
        self, small_config
    ):
        model = deepbench_lstm(hidden=256, steps=4)
        small = build_training_plan(model, small_config, batch=8)
        large = build_training_plan(model, small_config, batch=64)
        assert large.compute_cycles() == pytest.approx(8 * small.compute_cycles())
        # Weights stream once per iteration whatever the batch.
        assert (
            large.dram_bytes_per_iteration < 8 * small.dram_bytes_per_iteration
        )

    def test_dram_bound_uses_stream_efficiency(self, plan, small_config):
        effective = small_config.dram_bytes_per_cycle * DRAM_STREAM_EFFICIENCY
        expected = plan.dram_bytes_per_iteration / effective
        assert plan.dram_cycles() == pytest.approx(expected, rel=1e-6)

    def test_paper_scale_lstm_is_dram_bound(self):
        """At the paper's scale (batch 128 vs hundreds of TOp/s of
        compute), LSTM training is bound by HBM bandwidth — the §2.2
        observation Equinox's whole premise rests on."""
        from repro.dse.table1 import equinox_configuration

        plan = build_training_plan(
            deepbench_lstm(), equinox_configuration("none"), batch=128
        )
        assert plan.dram_cycles() >= plan.compute_cycles()
        # Max training throughput lands near the paper's ~107 TOp/s.
        assert 80 <= plan.dedicated_throughput_top_s() <= 160

    def test_bigger_batch_raises_intensity(self, small_config):
        model = deepbench_lstm(hidden=256, steps=4)
        small = build_training_plan(model, small_config, batch=8)
        large = build_training_plan(model, small_config, batch=64)
        assert (
            large.ops_per_iteration / large.dram_bytes_per_iteration
            > small.ops_per_iteration / small.dram_bytes_per_iteration
        )
