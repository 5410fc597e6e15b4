"""Fleet fault tolerance: straggler-tolerant rounds, partial
aggregation, crash recovery via round checkpoints, and the
parameter-server/report validation fixes."""

import math

import pytest

from repro.cluster.fleet import EquinoxFleet, FleetReport, RoundCheckpoint
from repro.cluster.parameter_server import ParameterServer
from repro.faults.plan import FaultPlan, HBMFaultSpec, WorkerFaultSpec


class TestRoundValidation:
    """Satellite fix: the parameter server refuses nonsense inputs
    instead of silently composing a corrupt round."""

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="zero workers"):
            ParameterServer().round([], model_weights=1000)

    def test_infinite_iteration_rejected(self):
        # A crashed worker surfaces as iteration_s = inf upstream; it
        # must be excluded before the round, never aggregated.
        with pytest.raises(ValueError, match="finite"):
            ParameterServer().round([0.1, math.inf], model_weights=1000)

    def test_nonpositive_iteration_rejected(self):
        with pytest.raises(ValueError):
            ParameterServer().round([0.1, 0.0], model_weights=1000)
        with pytest.raises(ValueError):
            ParameterServer().round([0.1, -1.0], model_weights=1000)

    def test_zero_weight_model_rejected(self):
        with pytest.raises(ValueError):
            ParameterServer().round([0.1], model_weights=0)

    def test_bad_timeout_and_min_workers_rejected(self):
        server = ParameterServer()
        with pytest.raises(ValueError):
            server.round([0.1], model_weights=10, timeout_s=0.0)
        with pytest.raises(ValueError):
            server.round([0.1], model_weights=10, min_workers=0)


class TestPartialAggregation:
    def test_no_timeout_waits_for_stragglers(self):
        sync = ParameterServer().round([0.1, 0.1, 0.4], model_weights=1000)
        assert sync.compute_s == 0.4
        assert sync.workers_aggregated == 3
        assert sync.workers_dropped == 0

    def test_timeout_drops_stragglers(self):
        sync = ParameterServer().round(
            [0.1, 0.1, 0.4], model_weights=1000, timeout_s=0.2
        )
        # The barrier closes at the timeout; two survivors aggregate.
        assert sync.compute_s == 0.2
        assert sync.workers_aggregated == 2
        assert sync.workers_dropped == 1

    def test_partial_round_moves_less_data(self):
        server = ParameterServer()
        full = server.round([0.1, 0.1, 0.4], model_weights=100_000)
        partial = server.round(
            [0.1, 0.1, 0.4], model_weights=100_000, timeout_s=0.2
        )
        assert partial.gather_s < full.gather_s
        assert partial.broadcast_s < full.broadcast_s

    def test_min_workers_floor_enforced(self):
        with pytest.raises(ValueError, match="min_workers"):
            ParameterServer().round(
                [0.1, 0.4, 0.5], model_weights=1000,
                timeout_s=0.2, min_workers=2,
            )


class TestScalingEfficiencyValidation:
    """Satellite fix: an empty/zero-harvest report raises instead of
    quietly returning 0.0."""

    def _report(self, workers):
        sync = ParameterServer().round([0.1], model_weights=1000)
        return FleetReport(
            workers=workers, round=sync, samples_per_s=1.0,
            fleet_training_top_s=1.0, dedicated_top_s=1.0,
        )

    def test_no_workers_raises(self):
        with pytest.raises(ValueError, match="no surviving workers"):
            self._report([]).scaling_efficiency

    def test_zero_harvest_raises(self, tiny_model):
        fleet = EquinoxFleet(1, model=tiny_model, training_batch=8)
        report = fleet.train([0.3], batches=1, seed=0)
        zeroed = [
            type(w)(
                worker_id=w.worker_id, load=w.load, training_top_s=0.0,
                inference_top_s=w.inference_top_s,
                p99_latency_us=w.p99_latency_us, iteration_s=w.iteration_s,
            )
            for w in report.workers
        ]
        with pytest.raises(ValueError, match="no worker harvested"):
            self._report(zeroed).scaling_efficiency


@pytest.fixture(scope="module")
def chaos_fleet_report():
    """The acceptance scenario: 4 workers, HBM retries + one straggler
    + one crash, completed via partial aggregation."""
    baseline = EquinoxFleet(4, min_workers=2)
    healthy = baseline.train([0.4] * 4, batches=1, seed=11)
    plan = FaultPlan(
        seed=11,
        hbm=HBMFaultSpec(error_rate=0.005, max_retries=3),
        workers=WorkerFaultSpec(crashed=(3,), stragglers=((1, 4.0),)),
    )
    fleet = EquinoxFleet(
        4, fault_plan=plan,
        round_timeout_s=2.0 * healthy.round.compute_s,
        min_workers=2,
    )
    report = fleet.train([0.4] * 4, batches=1, seed=11)
    return healthy, report, fleet


class TestFleetChaos:
    def test_round_completes_partially(self, chaos_fleet_report):
        _, report, _ = chaos_fleet_report
        assert report.round.workers_aggregated == 2
        assert report.round.workers_dropped == 1  # the straggler

    def test_counters_in_report(self, chaos_fleet_report):
        _, report, _ = chaos_fleet_report
        assert report.faults.workers_crashed == 1
        assert report.faults.stragglers_dropped == 1
        assert report.faults.rounds_partial == 1
        assert report.faults.hbm_errors > 0
        assert report.faults.hbm_retries > 0

    def test_p99_degradation_is_bounded(self, chaos_fleet_report):
        healthy, report, _ = chaos_fleet_report
        worst_healthy = max(w.p99_latency_us for w in healthy.workers)
        worst_chaos = max(w.p99_latency_us for w in report.workers)
        assert math.isfinite(worst_chaos)
        assert worst_chaos <= 3.0 * worst_healthy

    def test_throughput_scales_with_survivors(self, chaos_fleet_report):
        healthy, report, _ = chaos_fleet_report
        assert 0 < report.samples_per_s < healthy.samples_per_s

    def test_straggler_harvests_proportionally_less(self, chaos_fleet_report):
        _, report, _ = chaos_fleet_report
        by_id = {w.worker_id: w for w in report.workers}
        assert by_id[1].iteration_s > 3.0 * by_id[0].iteration_s

    def test_all_crashed_round_refused(self):
        plan = FaultPlan(
            seed=0, workers=WorkerFaultSpec(crashed=(0, 1))
        )
        fleet = EquinoxFleet(2, fault_plan=plan, min_workers=1)
        with pytest.raises(ValueError, match="survived"):
            fleet.train([0.4, 0.4], batches=1, seed=0)


class TestCheckpointRestore:
    def test_checkpoint_records_survivors(self, chaos_fleet_report):
        _, _, fleet = chaos_fleet_report
        checkpoint = fleet.last_checkpoint
        assert checkpoint is not None
        assert {w.worker_id for w in checkpoint.reports} == {0, 1, 2}

    def test_resume_skips_measured_workers(self, chaos_fleet_report):
        _, report, fleet = chaos_fleet_report
        checkpoint = fleet.last_checkpoint
        # The crashed worker is replaced; re-run the round resuming from
        # the checkpoint under a crash-free plan.
        healed = EquinoxFleet(
            4,
            fault_plan=FaultPlan(
                seed=11, hbm=HBMFaultSpec(error_rate=0.005, max_retries=3)
            ),
            min_workers=2,
        )
        resumed = healed.train(
            [0.4] * 4, batches=1, seed=11, resume_from=checkpoint
        )
        assert resumed.faults.round_restores == 1
        assert resumed.round.workers_aggregated == 4
        by_id = {w.worker_id: w for w in resumed.workers}
        # Survivors' measurements are reused bit-for-bit.
        for original in report.workers:
            assert by_id[original.worker_id] == original

    def test_mismatched_checkpoint_refused(self, tiny_model):
        fleet = EquinoxFleet(1, model=tiny_model, training_batch=8)
        checkpoint = RoundCheckpoint(seed=99, loads=(0.5,))
        with pytest.raises(ValueError, match="different seed/loads"):
            fleet.train([0.5], batches=1, seed=0, resume_from=checkpoint)
