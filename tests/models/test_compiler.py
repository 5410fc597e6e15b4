"""Tile compiler: Figure 4 tiling, chunking, utilization, training plans."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.config import AcceleratorConfig
from repro.models.compiler import (
    TileCompiler,
    compile_inference,
    compile_training,
    tile_gemm,
    tiling_utilization,
)
from repro.dse.table1 import equinox_configuration
from repro.exec.canonical import canonical_json
from repro.models.gru import deepbench_gru
from repro.models.lstm import deepbench_lstm
from repro.models.resnet import resnet50


class TestTiling:
    def test_exact_fit_full_utilization(self, small_config):
        # rows=n, k = tile_k, n_out = column_group: no padding at all.
        tiling = tile_gemm(8, 32, 32, small_config)
        assert tiling.instructions == 1
        assert tiling.utilization(small_config) == pytest.approx(1.0)

    def test_ceil_counts(self, small_config):
        tiling = tile_gemm(9, 33, 33, small_config)
        assert tiling.row_passes == 2
        assert tiling.k_tiles == 2
        assert tiling.col_groups == 2

    def test_utilization_reflects_padding(self, small_config):
        tiling = tile_gemm(8, 48, 32, small_config)  # k pads 48 -> 64
        assert tiling.utilization(small_config) == pytest.approx(48 / 64)

    def test_rejects_bad_dims(self, small_config):
        with pytest.raises(ValueError):
            tile_gemm(0, 8, 8, small_config)

    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_utilization_in_unit_interval(self, rows, k, n_out):
        config = AcceleratorConfig(name="p", n=8, m=4, w=4, frequency_hz=1e9)
        util = tiling_utilization(rows, k, n_out, config)
        assert 0.0 < util <= 1.0

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_capacity_covers_real_macs(self, rows, k, n_out):
        config = AcceleratorConfig(name="p", n=4, m=2, w=2, frequency_hz=1e9)
        tiling = tile_gemm(rows, k, n_out, config)
        assert tiling.capacity_macs(config) >= tiling.real_macs


class TestInferenceCompilation:
    def test_step_count_matches_dependency_chain(self, small_config, tiny_model):
        program = compile_inference(tiny_model, small_config)
        assert program.step_count == tiny_model.step_count

    def test_batch_defaults_to_n_for_vector_models(self, small_config, tiny_model):
        program = compile_inference(tiny_model, small_config)
        assert program.rows == small_config.n

    def test_inference_jobs_have_no_weight_stream(self, small_config, tiny_model):
        program = compile_inference(tiny_model, small_config)
        assert program.total_weight_bytes == 0.0

    def test_occupancy_matches_closed_form(self, small_config):
        lstm = deepbench_lstm(hidden=256, steps=4)
        program = compile_inference(lstm, small_config)
        k_tiles = math.ceil(256 / small_config.tile_k)
        col_groups = math.ceil(1024 / small_config.column_group)
        expected = 4 * k_tiles * col_groups * small_config.n
        assert program.total_mmu_cycles == pytest.approx(expected)

    def test_chunking_preserves_totals(self, small_config):
        lstm = deepbench_lstm(hidden=512, steps=2)
        fine = TileCompiler(small_config, chunk_us=0.05).compile_inference(lstm)
        coarse = TileCompiler(small_config, chunk_us=100.0).compile_inference(lstm)
        assert fine.total_mmu_cycles == pytest.approx(coarse.total_mmu_cycles)
        assert fine.total_useful_ops == pytest.approx(coarse.total_useful_ops)
        assert sum(len(s.mmu_jobs) for s in fine.steps) > sum(
            len(s.mmu_jobs) for s in coarse.steps
        )

    def test_useful_ops_match_model(self, small_config, tiny_model):
        program = compile_inference(tiny_model, small_config)
        expected = program.rows * 2.0 * tiny_model.macs_per_sample
        assert program.total_useful_ops == pytest.approx(expected)

    def test_rejects_bad_batch(self, small_config, tiny_model):
        with pytest.raises(ValueError):
            compile_inference(tiny_model, small_config, batch=-1)


class TestTrainingCompilation:
    def test_three_passes_plus_sync(self, small_config, tiny_model):
        program = compile_training(tiny_model, small_config, batch=16)
        labels = [step.label for step in program.steps]
        assert sum(1 for l in labels if l.startswith("fwd:")) == 2
        assert sum(1 for l in labels if l.startswith("dgrad:")) == 2
        assert sum(1 for l in labels if l.startswith("wgrad:")) == 1
        assert labels[-1] == "param_sync"

    def test_training_ops_about_three_times_inference(self, small_config, tiny_model):
        train = compile_training(tiny_model, small_config, batch=16)
        inference_macs = 16 * tiny_model.macs_per_sample
        assert train.total_useful_ops == pytest.approx(
            3 * 2 * inference_macs, rel=0.01
        )

    def test_weights_streamed_per_step(self, small_config, tiny_model):
        program = compile_training(
            tiny_model, small_config, batch=16, master_bytes=2.0
        )
        layer = tiny_model.layers[0]
        # fwd + dgrad each stream the master weights every repeat.
        expected = 2 * layer.repeats * layer.weight_count * 2.0
        assert program.total_weight_bytes == pytest.approx(expected)

    def test_wgrad_concatenates_sequence(self, small_config, tiny_model):
        program = compile_training(tiny_model, small_config, batch=16)
        wgrad = next(s for s in program.steps if s.label.startswith("wgrad"))
        layer = tiny_model.layers[0]
        # K = batch·repeats: the sequence-batched reduction.
        expected_macs = layer.k * (16 * layer.repeats) * layer.n_out
        assert wgrad.useful_macs == pytest.approx(expected_macs)

    def test_param_sync_bytes(self, small_config, tiny_model):
        program = compile_training(
            tiny_model, small_config, batch=16, master_bytes=2.0
        )
        sync = program.steps[-1]
        assert sync.dram_bytes == pytest.approx(
            2 * tiny_model.weight_count * 2.0
        )

    def test_stream_cap_shrinks_jobs(self, small_config, tiny_model):
        free = compile_training(tiny_model, small_config, batch=16)
        capped = TileCompiler(small_config).compile_training(
            tiny_model, batch=16, max_stream_bytes=64.0
        )
        assert sum(len(s.mmu_jobs) for s in capped.steps) >= sum(
            len(s.mmu_jobs) for s in free.steps
        )
        assert capped.total_mmu_cycles == pytest.approx(free.total_mmu_cycles)

    def test_mlp_training_reverses_layers(self, small_config, tiny_mlp_model):
        program = compile_training(tiny_mlp_model, small_config, batch=8)
        labels = [s.label for s in program.steps if s.label.startswith("wgrad")]
        assert labels == ["wgrad:fc1", "wgrad:fc0"]

    def test_first_mlp_layer_skips_dgrad(self, small_config, tiny_mlp_model):
        program = compile_training(tiny_mlp_model, small_config, batch=8)
        dgrads = [s.label for s in program.steps if s.label.startswith("dgrad")]
        assert dgrads == ["dgrad:fc1[0]"]


class TestCompiledProgramsPinned:
    """The compiled programs of the paper's three models on the 500us
    hbfp8 design, value for value: canonical-JSON sha256 of each."""

    PINS = {
        ("lstm", "inference"):
            "7a5d493fc1c392ebe5a4ee3d7b15e40b796cf1ff0df9ba0c5be5715def759821",
        ("lstm", "training"):
            "a64cc8ab40eb5e8e5f5eb9a404356853b13111a645935d450ebd799b435e4a45",
        ("gru", "inference"):
            "07047324553f03c60bdf588ab779cb0856e0d0be7782266b562a19e168af68cd",
        ("gru", "training"):
            "a489cdccc893f919ff1fe41e3fff40945dca53e770cd7c2a932a5c5811fed95f",
        ("resnet50", "inference"):
            "9ebfd12a1f21b1b87a298d85eff8f85186664dc7edf0d6dadd9219ea543daf62",
        ("resnet50", "training"):
            "338659c4ee4fa1a8160ffe9eb9ffe7d9396cad8d183475d07ce5452b68031ef0",
    }
    MODELS = {
        "lstm": deepbench_lstm,
        "gru": lambda: deepbench_gru(steps=60),
        "resnet50": resnet50,
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_programs_match_their_pins(self, name):
        config = equinox_configuration("500us")
        compiler = TileCompiler(config)
        model = self.MODELS[name]()
        programs = {
            "inference": compiler.compile_inference(model),
            "training": compiler.compile_training(
                model, batch=128, max_stream_bytes=config.staging_bytes / 2.0
            ),
        }
        for kind, program in programs.items():
            text = canonical_json(dataclasses.asdict(program))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == self.PINS[(name, kind)], (name, kind)

    def test_repeats_share_one_job_list(self, tiny_model, small_config):
        """A recurrent layer is chunked once per pass: its steps hold
        the same frozen jobs, each in a list of its own."""
        program = compile_training(tiny_model, small_config, batch=8)
        fwd = [s for s in program.steps if s.label.startswith("fwd:")]
        assert len(fwd) == 2
        assert fwd[0].mmu_jobs is not fwd[1].mmu_jobs
        assert all(
            a is b for a, b in zip(fwd[0].mmu_jobs, fwd[1].mmu_jobs)
        )
