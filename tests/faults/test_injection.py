"""Injection sites: HBM ECC retries, MMU stalls, lossy arrivals."""

import pytest

from repro.faults.counters import FaultCounters
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, HBMFaultSpec, MMUFaultSpec, RequestFaultSpec
from repro.hw.dram import HBMInterface
from repro.hw.isa import MMUJob
from repro.hw.mmu import MatrixMultiplyUnit
from repro.workload.loadgen import FaultyArrivals, TraceArrivals


def make_injector(plan):
    counters = FaultCounters()
    return FaultInjector(plan, counters), counters


class TestHBMRetry:
    def test_certain_error_exhausts_bounded_budget(self, sim, tiny_config):
        hbm = HBMInterface(sim, tiny_config)
        injector, counters = make_injector(
            FaultPlan(seed=1, hbm=HBMFaultSpec(error_rate=1.0, max_retries=2))
        )
        hbm.set_fault_injector(injector)
        done = []
        hbm.transfer(4096, on_done=lambda: done.append(1))
        sim.run()
        # Every completion errors: 2 bounded retries, then the transfer
        # is delivered through the exhausted path — never wedged.
        assert done == [1]
        assert counters.hbm_retries == 2
        assert counters.hbm_retry_exhausted == 1
        assert counters.hbm_errors == 3

    def test_retry_bandwidth_is_accounted(self, sim, tiny_config):
        hbm = HBMInterface(sim, tiny_config)
        injector, counters = make_injector(
            FaultPlan(seed=1, hbm=HBMFaultSpec(error_rate=1.0, max_retries=2))
        )
        hbm.set_fault_injector(injector)
        hbm.transfer(4096, on_done=lambda: None)
        sim.run()
        # Retries consume real channel bandwidth: the block stream
        # crosses the channel once plus once per counted retry.
        assert counters.hbm_retries == 2
        assert hbm.bytes_transferred == pytest.approx(
            (1 + counters.hbm_retries) * 4096
        )

    def test_fire_and_forget_transfers_retry_too(self, sim, tiny_config):
        hbm = HBMInterface(sim, tiny_config)
        injector, counters = make_injector(
            FaultPlan(seed=1, hbm=HBMFaultSpec(error_rate=1.0, max_retries=2))
        )
        hbm.set_fault_injector(injector)
        hbm.transfer(4096)  # a write-back: nobody waits on it
        sim.run()
        assert counters.hbm_retries == 2
        assert counters.hbm_retry_exhausted == 1
        assert hbm.bytes_transferred == pytest.approx(3 * 4096)

    def test_retries_delay_completion(self, sim, tiny_config):
        clean = HBMInterface(sim, tiny_config)
        t_clean = []
        clean.transfer(4096, on_done=lambda: t_clean.append(sim.now))
        sim.run()

        faulty = HBMInterface(sim, tiny_config)
        injector, _ = make_injector(
            FaultPlan(seed=1, hbm=HBMFaultSpec(error_rate=1.0, max_retries=1))
        )
        faulty.set_fault_injector(injector)
        start = sim.now
        t_faulty = []
        faulty.transfer(4096, on_done=lambda: t_faulty.append(sim.now - start))
        sim.run()
        assert t_faulty[0] > t_clean[0]

    def test_zero_error_rate_is_transparent(self, sim, tiny_config):
        hbm = HBMInterface(sim, tiny_config)
        injector, counters = make_injector(FaultPlan.none())
        hbm.set_fault_injector(injector)
        done = []
        hbm.transfer(4096, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert counters.faults_injected == 0
        assert hbm.bytes_transferred == 4096


class TestMMUStall:
    def _job(self):
        return MMUJob(cycles=100.0, rows=4, macs=1000.0, utilization=1.0)

    def test_stall_extends_occupancy_into_other(self, sim, tiny_config):
        mmu = MatrixMultiplyUnit(sim, tiny_config)
        injector, counters = make_injector(
            FaultPlan(
                seed=2, mmu=MMUFaultSpec(stall_rate=1.0, stall_cycles=40.0)
            )
        )
        mmu.set_fault_injector(injector)
        done = []
        mmu.issue(self._job(), real_rows=4, context="inference",
                  on_done=lambda: done.append(sim.now))
        sim.run()
        assert counters.mmu_stalls == 1
        assert counters.mmu_stall_cycles == 40.0
        assert mmu.accounting.busy_total() == pytest.approx(140.0)
        # The stall is dead time: Figure 8's "other", not working cycles.
        shares = mmu.accounting.breakdown(140.0)
        assert shares["other"] == pytest.approx(40.0 / 140.0)
        assert shares["working"] == pytest.approx(100.0 / 140.0)

    def test_no_stall_without_injector(self, sim, tiny_config):
        mmu = MatrixMultiplyUnit(sim, tiny_config)
        mmu.issue(self._job(), real_rows=4, context="inference")
        sim.run()
        assert mmu.accounting.busy_total() == pytest.approx(100.0)


class TestFaultyArrivals:
    def test_drops_merge_gaps_and_are_counted(self):
        plan = FaultPlan(seed=5, requests=RequestFaultSpec(drop_rate=0.5))
        counters = FaultCounters()
        arrivals = FaultyArrivals(TraceArrivals([10.0]), plan, counters)
        gaps = [arrivals.next_gap() for _ in range(200)]
        # Every gap is a whole number of merged base gaps.
        assert all(gap % 10.0 == 0 for gap in gaps)
        assert any(gap > 10.0 for gap in gaps)
        assert counters.requests_dropped > 0
        # Surviving arrivals inherit the dropped requests' gaps exactly.
        assert sum(gaps) == pytest.approx(
            10.0 * (len(gaps) + counters.requests_dropped)
        )

    def test_delays_stretch_gaps(self):
        plan = FaultPlan(
            seed=5,
            requests=RequestFaultSpec(delay_rate=1.0, delay_cycles=7.0),
        )
        counters = FaultCounters()
        arrivals = FaultyArrivals(TraceArrivals([10.0]), plan, counters)
        gaps = [arrivals.next_gap() for _ in range(20)]
        assert gaps == [17.0] * 20
        assert counters.requests_delayed == 20

    def test_same_plan_same_lossy_trace(self):
        plan = FaultPlan(
            seed=9,
            requests=RequestFaultSpec(
                drop_rate=0.2, delay_rate=0.3, delay_cycles=4.0
            ),
        )
        first = FaultyArrivals(TraceArrivals([10.0]), plan, FaultCounters())
        second = FaultyArrivals(TraceArrivals([10.0]), plan, FaultCounters())
        assert [first.next_gap() for _ in range(100)] == [
            second.next_gap() for _ in range(100)
        ]
