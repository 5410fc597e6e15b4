"""The engines refuse verifier-rejected programs at install time."""

import pytest

from repro.analysis.program_verifier import ProgramVerificationError
from repro.core.dispatcher import InferenceEngine, TrainingEngine
from repro.core.scheduler import InferenceOnlyScheduler, PriorityScheduler
from repro.hw.dram import HBMInterface
from repro.hw.isa import MMUJob, Program, StepProgram
from repro.hw.mmu import MatrixMultiplyUnit
from repro.hw.simd import SIMDUnit
from repro.models.compiler import TileCompiler


def _datapath(sim, config):
    return MatrixMultiplyUnit(sim, config), SIMDUnit(sim, config)


def _overcommitted_program(config):
    job = MMUJob(
        cycles=10.0, rows=4, macs=100.0 * config.total_alus, utilization=0.9
    )
    return Program(
        name="overcommit",
        steps=[StepProgram(mmu_jobs=[job])],
        rows=4,
        useful_ops_per_row=1.0,
    )


def _staging_overflow_program(config):
    job = MMUJob(
        cycles=1e6,
        rows=4,
        macs=1e6,
        utilization=0.9,
        weight_bytes=2.0 * config.staging_bytes,
    )
    return Program(
        name="staging_overflow",
        steps=[StepProgram(mmu_jobs=[job])],
        rows=4,
        useful_ops_per_row=1.0,
    )


class TestInferenceInstallGate:
    def test_violating_program_fails_install(self, sim, tiny_config):
        mmu, simd = _datapath(sim, tiny_config)
        with pytest.raises(ProgramVerificationError) as excinfo:
            InferenceEngine(
                sim, tiny_config, mmu, simd,
                _overcommitted_program(tiny_config), InferenceOnlyScheduler(),
            )
        assert any(d.rule_id == "EQX103" for d in excinfo.value.diagnostics)

    def test_compiled_program_installs(self, sim, tiny_config, tiny_model):
        compiler = TileCompiler(tiny_config, chunk_us=0.05)
        mmu, simd = _datapath(sim, tiny_config)
        engine = InferenceEngine(
            sim, tiny_config, mmu, simd,
            compiler.compile_inference(tiny_model), InferenceOnlyScheduler(),
        )
        assert engine.batches_completed == 0


class TestTrainingInstallGate:
    def test_staging_violation_fails_install(self, sim, tiny_config):
        mmu, simd = _datapath(sim, tiny_config)
        hbm = HBMInterface(sim, tiny_config)
        with pytest.raises(ProgramVerificationError) as excinfo:
            TrainingEngine(
                sim, tiny_config, mmu, simd, hbm,
                _staging_overflow_program(tiny_config),
                PriorityScheduler(queue_threshold=4),
                inference_queue_size=lambda: 0,
            )
        assert any(d.rule_id == "EQX104" for d in excinfo.value.diagnostics)

    def test_compiled_program_installs(self, sim, tiny_config, tiny_model):
        compiler = TileCompiler(tiny_config, chunk_us=0.05)
        program = compiler.compile_training(
            tiny_model, batch=8, max_stream_bytes=tiny_config.staging_bytes / 2.0
        )
        mmu, simd = _datapath(sim, tiny_config)
        hbm = HBMInterface(sim, tiny_config)
        engine = TrainingEngine(
            sim, tiny_config, mmu, simd, hbm, program,
            PriorityScheduler(queue_threshold=4),
            inference_queue_size=lambda: 0,
        )
        assert engine.iterations_completed == 0
