"""Chip servers and the fleet router: pull batching, placement and
chip-kill failover."""

import zlib

import pytest

from repro.core.dispatcher import TenantShare
from repro.faults.plan import FaultPlan, WorkerFaultSpec
from repro.serve.router import KILL_WINDOW, ChipServer, FleetRouter

SERVICE = 1000.0


def _shares():
    return [TenantShare("a", weight=2.0), TenantShare("b", weight=1.0)]


class TestChipServer:
    def test_pull_batching_forms_only_on_free_slots(self, sim):
        chip = ChipServer(sim, 0, _shares(), SERVICE, 4)
        for _ in range(9):
            chip.dispatcher.submit("a")
        # The first two arrivals found the two slots idle and each
        # started alone; the rest stay in the bounded admission queue,
        # not formed batches.
        assert chip.dispatcher.queue_size == 7
        assert chip.outstanding_requests == 9
        sim.run()
        assert chip.requests_served == 9
        assert chip.batches_served == 4  # 1 + 1, then 4 + 3
        assert sim.now == 2 * SERVICE
        assert chip.outstanding_requests == 0

    def test_two_batches_overlap(self, sim):
        chip = ChipServer(sim, 0, _shares(), SERVICE, 1)
        for _ in range(3):
            chip.dispatcher.submit("a")
        sim.run()
        # The first two single-request batches ran concurrently; the
        # third waited for a slot.
        assert chip.batches_served == 3
        assert sim.now == 2 * SERVICE

    def test_slowdown_stretches_service(self, sim):
        chip = ChipServer(sim, 0, _shares(), SERVICE, 4, slowdown=2.0)
        chip.dispatcher.submit("a")
        sim.run()
        assert sim.now == 2 * SERVICE

    def test_kill_evacuates_everything_in_request_order(self, sim):
        chip = ChipServer(sim, 0, _shares(), SERVICE, 4)
        for _ in range(6):
            chip.dispatcher.submit("a")
        evacuated = chip.kill()
        assert not chip.alive
        assert [r.request_id for r in evacuated] == list(range(6))
        # Back through admission: none of them count as batched work.
        assert all(r.batched_cycle is None for r in evacuated)
        assert chip.requests_served == 0
        assert chip.outstanding_requests == 0
        sim.run()  # cancelled service events must not fire
        assert chip.batches_served == 0

    def test_rejects_bad_parameters(self, sim):
        with pytest.raises(ValueError):
            ChipServer(sim, 0, _shares(), 0.0, 4)
        with pytest.raises(ValueError):
            ChipServer(sim, 0, _shares(), SERVICE, 4, slowdown=0.5)


def _router(sim, fleet_size=4, seed=3, **kwargs):
    return FleetRouter(
        sim,
        _shares(),
        fleet_size=fleet_size,
        batch_slots=4,
        batch_service_cycles=SERVICE,
        seed=seed,
        **kwargs,
    )


class TestFleetRouter:
    def test_unknown_tenant_rejected(self, sim):
        with pytest.raises(ValueError, match="unknown tenant"):
            _router(sim).submit("nobody")

    def test_everything_submitted_completes(self, sim):
        router = _router(sim)
        for _ in range(20):
            router.submit("a")
        for _ in range(10):
            router.submit("b")
        sim.run()
        assert router.completed_by_tenant == {"a": 20, "b": 10}
        assert router.outstanding_requests == 0
        assert router.sketches["a"].count == 20
        assert router.last_completion_cycle == sim.now

    def test_placement_respects_affinity_arcs(self, sim):
        router = _router(sim, fleet_size=8)
        for _ in range(40):
            router.submit("a")
        arc_start = zlib.crc32(b"a") % 8
        arc = {(arc_start + offset) % 8 for offset in range(4)}
        for chip in router.chips:
            if chip.chip_id not in arc:
                assert chip.outstanding_requests == 0, chip.chip_id

    def test_kill_chip_fails_over_through_admission(self, sim):
        router = _router(sim, fleet_size=2)
        for _ in range(24):
            router.submit("a")
        loaded = max(
            router.chips, key=lambda chip: chip.outstanding_requests
        )
        router.kill_chip(loaded.chip_id)
        assert router.chips_killed == [loaded.chip_id]
        assert router.failover_redispatched > 0
        assert router.counters.workers_crashed == 1
        sim.run()
        # Nothing lost: the survivor absorbed the evacuated requests.
        assert sum(router.completed_by_tenant.values()) == 24
        assert router.failover_dropped == 0
        assert router.alive_chips == 1

    def test_dead_fleet_drops_failover_and_counts_unroutable(self, sim):
        router = _router(sim, fleet_size=1)
        requests = [router.submit("a") for _ in range(6)]
        router.kill_chip(0)
        # No survivor to fail over to: evacuated requests are dropped
        # (counted, marked rejected) rather than silently vanishing.
        assert router.failover_dropped_by_tenant["a"] == 6
        assert all(request.rejected for request in requests)
        assert router.submit("a") is None
        assert router.unroutable_by_tenant["a"] == 1
        assert router.submitted_by_tenant["a"] == 6  # unroutable ≠ placed

    def test_schedule_kills_follows_the_plan(self, sim):
        plan = FaultPlan(seed=11, workers=WorkerFaultSpec(crashed=(1, 99)))
        router = _router(sim, fleet_size=4, fault_plan=plan)
        horizon = 20 * SERVICE
        router.schedule_kills(horizon)
        sim.run()
        # Chip 99 is out of range and skipped; chip 1 died inside the
        # kill window, deterministically from the plan seed.
        assert router.chips_killed == [1]
        assert not router.chips[1].alive
        assert KILL_WINDOW[0] * horizon <= sim.now <= KILL_WINDOW[1] * horizon

    def test_rejects_empty_fleet(self, sim):
        with pytest.raises(ValueError):
            _router(sim, fleet_size=0)
