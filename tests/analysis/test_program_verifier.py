"""Program verifier: one violating and one clean case per rule."""

from dataclasses import dataclass, replace

import pytest

from repro.analysis.program_verifier import (
    ProgramVerificationError,
    raise_on_errors,
    verify,
    verify_image,
    verify_program,
)
from repro.hw.instructions import (
    Instruction,
    InstructionImage,
    Opcode,
    assemble_inference,
    assemble_training,
)
from repro.hw.isa import DRAMRequest, MMUJob, Program, SIMDJob, StepProgram
from repro.models.compiler import TileCompiler


@dataclass
class _RawJob:
    """MMUJob stand-in without construction-time validation, so the
    verifier's defensive field checks can be exercised."""

    cycles: float
    rows: int
    macs: float
    utilization: float
    weight_bytes: float = 0.0
    instruction_count: int = 1


def _job(config, cycles=100.0, rows=4, utilization=0.9, weight_bytes=0.0):
    return MMUJob(
        cycles=cycles,
        rows=rows,
        macs=0.5 * cycles * config.total_alus,
        utilization=utilization,
        weight_bytes=weight_bytes,
    )


def _program(steps, rows=4, name="prog"):
    return Program(name=name, steps=steps, rows=rows, useful_ops_per_row=1.0)


def _ids(diags):
    return [d.rule_id for d in diags]


class TestJobLevelRules:
    def test_clean_program(self, tiny_config):
        program = _program([StepProgram(mmu_jobs=[_job(tiny_config)])])
        assert verify_program(program, tiny_config) == []

    def test_eqx101_no_steps(self, tiny_config):
        assert "EQX101" in _ids(verify_program(_program([]), tiny_config))

    def test_eqx101_step_without_work(self, tiny_config):
        program = _program([StepProgram()])
        diags = verify_program(program, tiny_config)
        assert _ids(diags) == ["EQX101"]
        assert "step[0]" in diags[0].location.obj

    def test_simd_only_step_is_work(self, tiny_config):
        program = _program([StepProgram(simd=SIMDJob(cycles=10.0))])
        assert verify_program(program, tiny_config) == []

    def test_eqx102_negative_job_fields(self, tiny_config):
        bad = _RawJob(cycles=-1.0, rows=4, macs=10.0, utilization=0.5)
        program = _program([StepProgram(mmu_jobs=[bad])])
        assert "EQX102" in _ids(verify_program(program, tiny_config))

    def test_eqx102_utilization_out_of_range(self, tiny_config):
        bad = _RawJob(cycles=1.0, rows=4, macs=10.0, utilization=1.5)
        program = _program([StepProgram(mmu_jobs=[bad])])
        assert "EQX102" in _ids(verify_program(program, tiny_config))

    def test_eqx102_zero_instruction_count(self, tiny_config):
        bad = _RawJob(
            cycles=1.0, rows=4, macs=10.0, utilization=0.5, instruction_count=0
        )
        program = _program([StepProgram(mmu_jobs=[bad])])
        assert "EQX102" in _ids(verify_program(program, tiny_config))

    def test_eqx102_bad_program_rows(self, tiny_config):
        program = _program([StepProgram(mmu_jobs=[_job(tiny_config)])], rows=0)
        assert "EQX102" in _ids(verify_program(program, tiny_config))

    def test_eqx102_negative_simd(self, tiny_config):
        program = _program([StepProgram(simd=SIMDJob(cycles=-1.0))])
        assert "EQX102" in _ids(verify_program(program, tiny_config))

    def test_eqx102_negative_dram_request(self, tiny_config):
        step = StepProgram(dram=[DRAMRequest(bytes=-10.0, kind="train_weights")])
        assert "EQX102" in _ids(verify_program(_program([step]), tiny_config))

    def test_eqx102_unknown_dram_kind(self, tiny_config):
        step = StepProgram(dram=[DRAMRequest(bytes=10.0, kind="mystery")])
        assert "EQX102" in _ids(verify_program(_program([step]), tiny_config))

    def test_eqx103_datapath_overcommit(self, tiny_config):
        bad = MMUJob(
            cycles=10.0,
            rows=4,
            macs=100.0 * tiny_config.total_alus,
            utilization=0.9,
        )
        program = _program([StepProgram(mmu_jobs=[bad])])
        assert "EQX103" in _ids(verify_program(program, tiny_config))

    def test_eqx103_peak_rate_is_legal(self, tiny_config):
        job = MMUJob(
            cycles=10.0, rows=4, macs=10.0 * tiny_config.total_alus, utilization=0.9
        )
        program = _program([StepProgram(mmu_jobs=[job])])
        assert verify_program(program, tiny_config) == []

    def test_eqx104_staging_overflow(self, tiny_config):
        over = 2.0 * tiny_config.staging_bytes
        program = _program(
            [StepProgram(mmu_jobs=[_job(tiny_config, weight_bytes=over)])]
        )
        assert "EQX104" in _ids(verify_program(program, tiny_config))

    def test_eqx104_message_prints_a_sub_percent_slice(self, tiny_config):
        config = replace(tiny_config, staging_fraction=0.005)
        over = 2.0 * config.staging_bytes
        program = _program([StepProgram(mmu_jobs=[_job(config, weight_bytes=over)])])
        (diag,) = verify_program(program, config)
        assert diag.rule_id == "EQX104"
        assert "0.5% of SRAM" in diag.message

    def test_eqx104_counts_stash_reloads(self, tiny_config):
        step = StepProgram(
            mmu_jobs=[_job(tiny_config)],
            dram=[DRAMRequest(bytes=2.0 * tiny_config.staging_bytes, kind="stash_in")],
        )
        assert "EQX104" in _ids(verify_program(_program([step]), tiny_config))

    def test_eqx105_no_double_buffer(self, tiny_config):
        tight = 0.75 * tiny_config.staging_bytes
        program = _program(
            [StepProgram(mmu_jobs=[_job(tiny_config, weight_bytes=tight)])]
        )
        diags = verify_program(program, tiny_config)
        assert _ids(diags) == ["EQX105"]

    def test_staging_checks_are_per_job(self, tiny_config):
        # Two jobs split one stream: each stages half, which fits.
        each = 0.4 * tiny_config.staging_bytes
        step = StepProgram(
            mmu_jobs=[
                _job(tiny_config, weight_bytes=each),
                _job(tiny_config, weight_bytes=each),
            ]
        )
        assert verify_program(_program([step]), tiny_config) == []

    def test_eqx106_tiling_waste(self, tiny_config):
        program = _program(
            [StepProgram(mmu_jobs=[_job(tiny_config, utilization=0.1)])]
        )
        diags = verify_program(program, tiny_config)
        assert _ids(diags) == ["EQX106"]

    def test_eqx106_threshold_is_tunable(self, tiny_config):
        program = _program(
            [StepProgram(mmu_jobs=[_job(tiny_config, utilization=0.1)])]
        )
        assert verify_program(program, tiny_config, waste_threshold=0.05) == []

    def test_eqx106_reported_once_per_step(self, tiny_config):
        jobs = [_job(tiny_config, utilization=0.1) for _ in range(10)]
        diags = verify_program(_program([StepProgram(mmu_jobs=jobs)]), tiny_config)
        assert _ids(diags) == ["EQX106"]

    def test_eqx107_row_overflow(self, tiny_config):
        program = _program([StepProgram(mmu_jobs=[_job(tiny_config, rows=8)])], rows=4)
        assert "EQX107" in _ids(verify_program(program, tiny_config))


class TestImageRules:
    def test_clean_inference_image(self, tiny_config):
        image = InstructionImage(
            service="inference",
            instructions=[
                Instruction(Opcode.LOOP, (4,)),
                Instruction(Opcode.MATMUL_TILE, (0,)),
                Instruction(Opcode.VECTOR_OP, ()),
                Instruction(Opcode.STORE_OUTPUT, ()),
            ],
        )
        assert verify_image(image, tiny_config) == []

    def test_eqx201_budget(self, tiny_config):
        # 16 B/instruction: 2048 fill the 32 KB buffer exactly.
        fits = InstructionImage(
            service="inference",
            instructions=[Instruction(Opcode.MATMUL_TILE, (0,))] * 2048,
        )
        over = InstructionImage(
            service="inference",
            instructions=[Instruction(Opcode.MATMUL_TILE, (0,))] * 2049,
        )
        assert verify_image(fits, tiny_config) == []
        assert "EQX201" in _ids(verify_image(over, tiny_config))

    def test_eqx201_share_scales_budget(self, tiny_config):
        image = InstructionImage(
            service="inference",
            instructions=[Instruction(Opcode.MATMUL_TILE, (0,))] * 1100,
        )
        assert verify_image(image, tiny_config, share=1.0) == []
        assert "EQX201" in _ids(verify_image(image, tiny_config, share=0.5))

    def test_eqx202_repeat_range(self, tiny_config):
        for repeat in (1, 0, (1 << 16) + 1):
            image = InstructionImage(
                service="inference",
                instructions=[
                    Instruction(Opcode.LOOP, (repeat,)),
                    Instruction(Opcode.MATMUL_TILE, (0,)),
                ],
            )
            assert "EQX202" in _ids(verify_image(image, tiny_config)), repeat

    def test_eqx202_missing_operand(self, tiny_config):
        image = InstructionImage(
            service="inference",
            instructions=[
                Instruction(Opcode.LOOP, ()),
                Instruction(Opcode.MATMUL_TILE, (0,)),
            ],
        )
        assert "EQX202" in _ids(verify_image(image, tiny_config))

    def test_eqx202_nesting_depth(self, tiny_config):
        loops = [Instruction(Opcode.LOOP, (4,))] * 5
        image = InstructionImage(
            service="inference",
            instructions=loops + [Instruction(Opcode.MATMUL_TILE, (0,))],
        )
        assert "EQX202" in _ids(verify_image(image, tiny_config))

    def test_four_deep_nest_is_legal(self, tiny_config):
        loops = [Instruction(Opcode.LOOP, (4,))] * 4
        image = InstructionImage(
            service="inference",
            instructions=loops + [Instruction(Opcode.MATMUL_TILE, (0,))],
        )
        assert verify_image(image, tiny_config) == []

    def test_eqx203_dead_instructions(self, tiny_config):
        image = InstructionImage(
            service="inference",
            instructions=[
                Instruction(Opcode.BARRIER, ()),  # leading
                Instruction(Opcode.MATMUL_TILE, (0,)),
                Instruction(Opcode.BARRIER, ()),
                Instruction(Opcode.BARRIER, ()),  # repeated
                Instruction(Opcode.LOOP, (8,)),
                Instruction(Opcode.BARRIER, ()),  # empty loop body
                Instruction(Opcode.MATMUL_TILE, (0,)),
                Instruction(Opcode.LOOP, (8,)),  # trailing
            ],
        )
        diags = verify_image(image, tiny_config)
        assert _ids(diags).count("EQX203") == 4
        assert all(d.rule_id == "EQX203" for d in diags)

    def test_eqx204_training_matmul_without_load(self, tiny_config):
        image = InstructionImage(
            service="training",
            instructions=[Instruction(Opcode.MATMUL_TILE, (0,))],
        )
        assert "EQX204" in _ids(verify_image(image, tiny_config))

    def test_inference_weights_are_resident(self, tiny_config):
        # The same image is legal for inference: weights live on-chip.
        image = InstructionImage(
            service="inference",
            instructions=[Instruction(Opcode.MATMUL_TILE, (0,))],
        )
        assert verify_image(image, tiny_config) == []

    def test_eqx205_load_after_store(self, tiny_config):
        image = InstructionImage(
            service="training",
            instructions=[
                Instruction(Opcode.LOAD_WEIGHTS, ()),
                Instruction(Opcode.MATMUL_TILE, (0,)),
                Instruction(Opcode.STORE_OUTPUT, ()),
                Instruction(Opcode.LOAD_WEIGHTS, ()),
            ],
        )
        assert "EQX205" in _ids(verify_image(image, tiny_config))

    def test_barrier_fences_the_hazard(self, tiny_config):
        image = InstructionImage(
            service="training",
            instructions=[
                Instruction(Opcode.LOAD_WEIGHTS, ()),
                Instruction(Opcode.MATMUL_TILE, (0,)),
                Instruction(Opcode.STORE_OUTPUT, ()),
                Instruction(Opcode.BARRIER, ()),
                Instruction(Opcode.LOAD_WEIGHTS, ()),
                Instruction(Opcode.MATMUL_TILE, (0,)),
            ],
        )
        assert verify_image(image, tiny_config) == []


class TestRaiseOnErrors:
    def test_raises_with_diagnostics(self, tiny_config):
        diags = verify_program(_program([]), tiny_config)
        with pytest.raises(ProgramVerificationError) as excinfo:
            raise_on_errors(diags)
        assert excinfo.value.diagnostics == diags
        assert "EQX101" in str(excinfo.value)

    def test_warnings_do_not_raise(self, tiny_config):
        program = _program(
            [StepProgram(mmu_jobs=[_job(tiny_config, utilization=0.1)])]
        )
        raise_on_errors(verify_program(program, tiny_config))


class TestDispatch:
    def test_verify_dispatches_program(self, tiny_config):
        program = _program([StepProgram(mmu_jobs=[_job(tiny_config)])])
        assert verify(program, tiny_config) == []

    def test_verify_dispatches_image(self, tiny_config):
        image = InstructionImage(
            service="inference",
            instructions=[Instruction(Opcode.MATMUL_TILE, (0,))],
        )
        assert verify(image, tiny_config) == []

    def test_verify_rejects_other_types(self, tiny_config):
        with pytest.raises(TypeError, match="cannot verify"):
            verify("not a program", tiny_config)


class TestCompiledArtifacts:
    """The real compiler's output must be verifier-clean (no errors)."""

    def test_compiled_inference_program(self, tiny_config, tiny_model):
        compiler = TileCompiler(tiny_config, chunk_us=0.05)
        diags = verify_program(
            compiler.compile_inference(tiny_model), tiny_config, context="inference"
        )
        assert [d for d in diags if d.severity.name == "ERROR"] == []

    def test_compiled_training_program(self, tiny_config, tiny_model):
        compiler = TileCompiler(tiny_config, chunk_us=0.05)
        program = compiler.compile_training(
            tiny_model, batch=8, max_stream_bytes=tiny_config.staging_bytes / 2.0
        )
        diags = verify_program(program, tiny_config, context="training")
        assert [d for d in diags if d.severity.name == "ERROR"] == []

    def test_assembled_images(self, tiny_config, tiny_model):
        for image in (
            assemble_inference(tiny_model, tiny_config),
            assemble_training(tiny_model, tiny_config, batch=8),
        ):
            diags = verify_image(image, tiny_config)
            assert diags == [], image.service
