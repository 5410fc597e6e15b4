"""Job and program containers."""

import pytest

from repro.hw.isa import DRAMRequest, MMUJob, Program, SIMDJob, StepProgram


def _job(cycles=10.0, rows=4, macs=100.0, util=0.8, weight_bytes=0.0):
    return MMUJob(
        cycles=cycles, rows=rows, macs=macs, utilization=util,
        weight_bytes=weight_bytes,
    )


class TestMMUJob:
    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            _job(cycles=-1)

    @pytest.mark.parametrize("field", ["cycles", "macs", "weight_bytes"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_fields(self, field, value):
        """The MMU books these fields with plain float arithmetic, so a
        NaN or inf would poison every total without an error."""
        fields = dict(cycles=10.0, rows=4, macs=100.0, utilization=0.8)
        fields[field] = value
        with pytest.raises(ValueError):
            MMUJob(**fields)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            _job(util=1.5)

    def test_frozen(self):
        job = _job()
        with pytest.raises(AttributeError):
            job.cycles = 5.0


class TestStepProgram:
    def test_aggregates(self):
        step = StepProgram(
            mmu_jobs=[_job(cycles=10, macs=100, weight_bytes=8),
                      _job(cycles=20, macs=200, weight_bytes=8)],
            simd=SIMDJob(cycles=3),
            dram=[DRAMRequest(64, "stash_out"), DRAMRequest(32, "stash_in")],
        )
        assert step.mmu_cycles == 30
        assert step.macs == 300
        assert step.useful_macs == pytest.approx(240)
        assert step.weight_bytes == 16
        assert step.dram_bytes == 96

    def test_empty_step(self):
        step = StepProgram()
        assert step.mmu_cycles == 0
        assert step.simd.cycles == 0.0


class TestProgram:
    def _program(self):
        steps = [
            StepProgram(mmu_jobs=[_job(cycles=10, macs=100, weight_bytes=4)],
                        simd=SIMDJob(cycles=2)),
            StepProgram(mmu_jobs=[_job(cycles=30, macs=300)],
                        simd=SIMDJob(cycles=1),
                        dram=[DRAMRequest(128, "stash_out")]),
        ]
        return Program(name="p", steps=steps, rows=4, useful_ops_per_row=50.0)

    def test_totals(self):
        program = self._program()
        assert program.total_mmu_cycles == 40
        assert program.total_simd_cycles == 3
        assert program.total_weight_bytes == 4
        assert program.total_dram_bytes == 132
        assert program.step_count == 2

    def test_useful_ops(self):
        program = self._program()
        assert program.total_useful_ops == pytest.approx(2 * (80 + 240))
