"""MMU arbiter: queues, accounting, pipelining, policy interaction."""

import dataclasses
import hashlib

import pytest

from repro.core.equinox import EquinoxAccelerator
from repro.core.scheduler import FairScheduler, PriorityScheduler
from repro.exec.canonical import canonical_json
from repro.faults.admission import AdmissionControl
from repro.faults.plan import FaultPlan, HBMFaultSpec, MMUFaultSpec
from repro.hw.isa import MMUJob
from repro.hw.mmu import MatrixMultiplyUnit
from repro.models.graph import GemmLayer, ModelSpec


def _job(cycles=10.0, rows=4, util=1.0):
    return MMUJob(cycles=cycles, rows=rows, macs=cycles * 100, utilization=util)


@pytest.fixture
def mmu(sim, tiny_config):
    return MatrixMultiplyUnit(sim, tiny_config)


class TestIssue:
    def test_fifo_without_policy(self, sim, mmu):
        order = []
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: order.append("a"))
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_on_done_fires_after_drain(self, sim, mmu, tiny_config):
        done = []
        mmu.issue(_job(10), 4, "inference", on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0 + tiny_config.pipeline_drain_cycles]

    def test_pipelined_issue_during_drain(self, sim, mmu, tiny_config):
        """A second job starts issuing while the first drains."""
        starts = []
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: starts.append(sim.now))
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: starts.append(sim.now))
        sim.run()
        assert starts == [0.0, 10.0]  # not delayed by the drain

    def test_rejects_bad_real_rows(self, mmu):
        with pytest.raises(ValueError):
            mmu.issue(_job(rows=4), 5, "inference")

    def test_rejects_unknown_queue(self, mmu):
        with pytest.raises(KeyError):
            mmu.issue(_job(), 4, "inference", queue="prefetch")


class TestIssueBatch:
    def test_timing_identical_to_scalar_issues(self, sim, tiny_config):
        """One pump for a whole stream reproduces the per-job-pump issue
        schedule — pump() is a no-op while the unit is busy — and the
        stream's one drain callback fires when the scalar path's last
        job drains: one issue completion per job plus that one drain."""
        records = {}
        jobs = [_job(10, rows=4), _job(7, rows=4), _job(3, rows=2)]
        for mode in ("scalar", "batch"):
            local = type(sim)()
            mmu = MatrixMultiplyUnit(local, tiny_config)
            issued, done = [], []

            def on_issue(issued=issued, local=local):
                issued.append(local.now)

            def on_done(done=done, local=local):
                done.append(local.now)

            if mode == "scalar":
                for job in jobs:
                    mmu.issue(job, min(3, job.rows), "inference",
                              on_done=on_done, on_issue=on_issue)
            else:
                count = mmu.issue_batch(
                    jobs,
                    real_rows=3,
                    context="inference",
                    on_done=on_done,
                    on_issue=on_issue,
                )
                assert count == 3
            local.run()
            records[mode] = (issued, done, local.events_processed)
        scalar_issued, scalar_done, _ = records["scalar"]
        batch_issued, batch_done, batch_events = records["batch"]
        assert batch_issued == scalar_issued == [0.0, 10.0, 17.0]
        assert len(scalar_done) == len(jobs)
        assert batch_done == [scalar_done[-1]]
        assert batch_events == len(jobs) + 1

    def test_empty_stream_is_a_no_op(self, sim, mmu):
        assert mmu.issue_batch([], 0, "inference") == 0
        sim.run()
        assert sim.events_processed == 0

    def test_rejects_bad_real_rows(self, mmu):
        with pytest.raises(ValueError):
            mmu.issue_batch([_job(rows=4)], -1, "inference")

    def test_rejects_unknown_queue(self, mmu):
        with pytest.raises(KeyError):
            mmu.issue_batch([_job()], 4, "inference", queue="prefetch")

    def test_negative_real_rows_enqueue_nothing(self, sim, mmu):
        with pytest.raises(ValueError):
            mmu.issue_batch([_job(rows=4), _job(rows=4)], -1, "inference")
        sim.run()
        assert sim.events_processed == 0
        # The next job finds the unit free: only it is granted and booked.
        granted = []
        mmu.issue(_job(10), 4, "inference",
                  on_issue=lambda: granted.append(sim.now))
        sim.run()
        assert granted == [0.0]
        assert mmu.accounting.busy_total() == 10
        assert sim.events_processed == 1  # its issue completion

    def test_real_rows_cap_at_each_jobs_rows(self, sim, mmu):
        """Three real requests over jobs of 4 and 2 rows: the first job
        carries 3 of its 4 rows, the second both of its 2."""
        first = _job(cycles=8.0, rows=4, util=0.5)
        second = _job(cycles=6.0, rows=2, util=0.5)
        assert mmu.issue_batch([first, second], 3, "inference") == 2
        sim.run()
        booked = mmu.accounting.busy_cycles()
        assert booked["working"] == 8.0 * 0.5 * (3 / 4) + 6.0 * 0.5 * (2 / 2)
        assert booked["dummy"] == 8.0 * 0.5 * (1 / 4)
        assert booked["other"] == 8.0 * 0.5 + 6.0 * 0.5
        assert mmu.throughput.total_ops == (
            2.0 * first.macs * 0.5 * (3 / 4) + 2.0 * second.macs * 0.5
        )


class TestAccounting:
    def test_full_batch_all_working(self, sim, mmu):
        mmu.issue(_job(cycles=10, rows=4, util=1.0), 4, "inference")
        sim.run()
        assert mmu.accounting.busy_total() == 10
        assert mmu.breakdown(20)["working"] == pytest.approx(0.5)
        assert mmu.breakdown(20)["idle"] == pytest.approx(0.5)

    def test_padded_batch_splits_dummy(self, sim, mmu):
        mmu.issue(_job(cycles=10, rows=4, util=1.0), 1, "inference")
        sim.run()
        breakdown = mmu.breakdown(10)
        assert breakdown["working"] == pytest.approx(0.25)
        assert breakdown["dummy"] == pytest.approx(0.75)

    def test_utilization_mismatch_is_other(self, sim, mmu):
        mmu.issue(_job(cycles=10, rows=4, util=0.6), 4, "inference")
        sim.run()
        assert mmu.breakdown(10)["other"] == pytest.approx(0.4)

    def test_useful_ops_scale_with_real_rows(self, sim, mmu):
        mmu.issue(_job(cycles=10, rows=4, util=1.0), 2, "inference")
        sim.run()
        # macs = 1000, half the rows real -> 2*1000*0.5 useful ops.
        assert mmu.throughput.total_ops == pytest.approx(1000.0)

    def test_per_context_attribution(self, sim, mmu):
        mmu.issue(_job(cycles=10, rows=4), 4, "inference")
        mmu.issue(_job(cycles=30, rows=4), 4, "training")
        sim.run()
        # macs = 100 × cycles, every row real: 2 × macs useful ops each.
        meters = mmu.throughput_by_context
        assert meters["inference"].total_ops == pytest.approx(2000.0)
        assert meters["training"].total_ops == pytest.approx(6000.0)
        assert mmu.breakdown(40)["working"] == pytest.approx(1.0)
        assert mmu.context_top_s("inference", 40) > 0
        assert mmu.context_top_s("idle-context", 40) == 0.0

    def test_context_meters_open_at_first_completion(self, sim, mmu):
        mmu.issue(_job(cycles=10, rows=4), 4, "inference")
        mmu.issue(_job(cycles=30, rows=4), 4, "training")
        sim.run()
        meters = mmu.throughput_by_context
        assert (meters["inference"].first_cycle,
                meters["inference"].last_cycle) == (10.0, 10.0)
        assert (meters["training"].first_cycle,
                meters["training"].last_cycle) == (40.0, 40.0)
        assert (mmu.throughput.first_cycle, mmu.throughput.last_cycle) == (
            10.0, 40.0
        )

    def test_context_top_s_over_window(self, sim, mmu, tiny_config):
        mmu.issue(_job(cycles=10, rows=4), 4, "inference")
        sim.run()
        # 2000 useful ops over a 40-cycle window.
        expected = 2000.0 / 40 * tiny_config.frequency_hz / 1e12
        assert mmu.context_top_s("inference", 40) == pytest.approx(expected)
        sim.run(until=40)
        assert mmu.context_top_s("inference") == pytest.approx(expected)

    def test_committed_block_books_to_its_context(self, sim, mmu):
        # A software scheduler queues committed training behind
        # inference; the work is still training's.
        order = []
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: order.append("i"))
        mmu.issue(_job(10), 4, "training", queue="inference",
                  on_issue=lambda: order.append("t"))
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: order.append("i"))
        sim.run()
        assert order == ["i", "t", "i"]
        meters = mmu.throughput_by_context
        assert meters["training"].total_ops == pytest.approx(2000.0)
        assert meters["inference"].total_ops == pytest.approx(4000.0)

    def test_breakdown_covers_the_window(self, sim, mmu):
        # Half the rows real on a half-utilized job, then a full one.
        mmu.issue(_job(cycles=10, rows=4, util=0.5), 2, "inference")
        mmu.issue(_job(cycles=30, rows=4), 4, "training")
        sim.run()
        breakdown = mmu.breakdown(80)
        assert breakdown["working"] == pytest.approx((2.5 + 30) / 80)
        assert breakdown["dummy"] == pytest.approx(2.5 / 80)
        assert breakdown["other"] == pytest.approx(5 / 80)
        assert breakdown["idle"] == pytest.approx(0.5)
        assert sum(breakdown.values()) == pytest.approx(1.0)


class TestPolicyArbitration:
    def test_fair_round_robins(self, sim, mmu):
        mmu.set_policy(FairScheduler(), lambda: 0)
        order = []
        for label in ("i1", "i2"):
            mmu.issue(_job(10), 4, "inference",
                      on_issue=lambda label=label: order.append(label))
        for label in ("t1", "t2"):
            mmu.issue(_job(10), 4, "training",
                      on_issue=lambda label=label: order.append(label),
                      queue="training")
        sim.run()
        assert order == ["i1", "t1", "i2", "t2"]

    def test_priority_blocks_training_during_spike(self, sim, mmu):
        backlog = [100]
        mmu.set_policy(PriorityScheduler(queue_threshold=10), lambda: backlog[0])
        issued = []
        mmu.issue(_job(10), 4, "training",
                  on_issue=lambda: issued.append(sim.now), queue="training")
        sim.run()
        assert issued == []  # held by the spike guard
        backlog[0] = 0
        mmu.pump()
        sim.run()
        assert issued == [sim.now - 10] or len(issued) == 1

    def test_priority_round_robins_below_threshold(self, sim, mmu):
        mmu.set_policy(PriorityScheduler(queue_threshold=10), lambda: 0)
        order = []
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: order.append("i"))
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: order.append("i"))
        mmu.issue(_job(10), 4, "training",
                  on_issue=lambda: order.append("t"), queue="training")
        sim.run()
        assert order == ["i", "t", "i"]

    def test_queue_depths(self, sim, mmu):
        granted = []
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: granted.append("i"))
        mmu.issue(_job(10), 4, "inference", on_issue=lambda: granted.append("i"))
        mmu.issue(_job(10), 4, "training",
                  on_issue=lambda: granted.append("t"), queue="training")
        assert granted == ["i"]  # one granted, one job waiting in each queue
        sim.run()
        assert granted == ["i", "i", "t"]  # no policy: inference first


def _fence_model():
    return ModelSpec(
        name="rnn",
        layers=(
            GemmLayer(
                name="cell", k=256, n_out=512, repeats=2,
                simd_ops_per_sample=64.0,
            ),
        ),
    )


class TestArbiterPinned:
    """Everything the arbiter decides and books, value for value, under
    each policy: canonical-JSON sha256 of the run's report (with its
    event count), the MMU's accounting and meters, and the policy's
    decision tally. A faster arbiter must leave every digest alone."""

    PINS = {
        "fair":
            "4ba09b420493ccf31c564b42a5d4b10dbeaface6b6f292d68af5695051a94c1d",
        "inference_only":
            "4a8825067ea869f5bc38fa88efd319f205919121616a8584d3d102003fe85fe2",
        "priority_faults":
            "a2182bcbdb63ba1ccd8d9992fa2c6fd99e8e1e286df92933d7b9370612af846f",
        "priority_spiky":
            "941ea627f7e03b6152b2a0953a69d12f554317684d414aba52c49b2bb6e81503",
        "software":
            "052b43c7e8ed08fe7b6f04cbfc96e3f1e635d1f4cf194b8e226b41af54c8ddca",
    }
    SETUPS = {
        "priority_spiky": dict(scheduler="priority", queue_threshold=1),
        "fair": dict(scheduler="fair"),
        "software": dict(scheduler="software", decision_latency_us=0.2),
        "inference_only": dict(training=False),
        "priority_faults": dict(
            scheduler="priority",
            fault_plan=FaultPlan(
                seed=3,
                hbm=HBMFaultSpec(error_rate=0.2, max_retries=2),
                mmu=MMUFaultSpec(stall_rate=0.2, stall_cycles=200.0),
            ),
            admission=AdmissionControl(max_queue_requests=64),
            degrade_threshold=2,
        ),
    }

    @staticmethod
    def _run(small_config, setup):
        setup = dict(setup)
        model = _fence_model()
        training = model if setup.pop("training", True) else None
        accelerator = EquinoxAccelerator(
            small_config, model, training_model=training, training_batch=8,
            chunk_us=0.05, **setup,
        )
        report = accelerator.run(load=0.7, requests=300, seed=11)
        mmu = accelerator.mmu
        return accelerator, {
            "report": dataclasses.asdict(report),
            "busy_cycles": mmu.accounting.busy_cycles(),
            "throughput": mmu.throughput.metrics(),
            "throughput_by_context": {
                context: meter.metrics()
                for context, meter in mmu.throughput_by_context.items()
            },
            "decisions": accelerator.scheduler.decisions,
        }

    @pytest.mark.parametrize("name", sorted(SETUPS))
    def test_arbiter_matches_its_pin(self, name, small_config):
        accelerator, state = self._run(small_config, self.SETUPS[name])
        if name == "priority_spiky":
            assert state["decisions"].get("idle", 0) > 0  # spikes held training
        if name == "priority_faults":
            counters = accelerator.fault_counters
            assert counters.degraded_intervals > 0
            assert counters.mmu_stalls > 0 and counters.hbm_retries > 0
        if name != "inference_only":
            assert state["throughput_by_context"]["training"]["total_ops"] > 0.0
        digest = hashlib.sha256(canonical_json(state).encode()).hexdigest()
        assert digest == self.PINS[name], name
