"""SIMD unit model."""

import pytest

from repro.hw.isa import SIMDJob
from repro.hw.simd import SIMDUnit


@pytest.fixture
def simd(sim, tiny_config):
    return SIMDUnit(sim, tiny_config)


class TestSIMD:
    def test_zero_cycle_job_completes_immediately(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=0.0), on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_occupancy(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=25.0), on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [25.0]

    def test_jobs_serialize(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=10.0), on_done=lambda: done.append(sim.now))
        simd.issue(SIMDJob(cycles=10.0), on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0, 20.0]

    def test_priority(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=10.0))
        simd.issue(SIMDJob(cycles=1.0), priority=1,
                   on_done=lambda: done.append("train"))
        simd.issue(SIMDJob(cycles=1.0), priority=0,
                   on_done=lambda: done.append("inf"))
        sim.run()
        assert done == ["inf", "train"]

    def test_fifo_within_priority(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=10.0))
        simd.issue(SIMDJob(cycles=1.0), on_done=lambda: done.append("a"))
        simd.issue(SIMDJob(cycles=1.0), on_done=lambda: done.append("b"))
        sim.run()
        assert done == ["a", "b"]

    def test_zero_cycle_job_does_not_wait_for_a_busy_unit(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=10.0), on_done=lambda: done.append(sim.now))
        simd.issue(SIMDJob(cycles=0.0), on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0, 10.0]

    def test_done_is_optional(self, sim, simd):
        done = []
        simd.issue(SIMDJob(cycles=10.0))
        simd.issue(SIMDJob(cycles=5.0), on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [15.0]
