"""MMU arbiter: queues, accounting, pipelining, policy interaction."""

import pytest

from repro.core.scheduler import FairScheduler, PriorityScheduler
from repro.hw.isa import MMUJob
from repro.hw.mmu import MatrixMultiplyUnit


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
                    real_rows_fn=lambda job: min(3, job.rows),
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
        assert mmu.issue_batch([], lambda job: 0, "inference") == 0
        sim.run()
        assert sim.events_processed == 0

    def test_rejects_bad_real_rows(self, mmu):
        with pytest.raises(ValueError):
            mmu.issue_batch(
                [_job(rows=4)], lambda job: job.rows + 1, "inference"
            )

    def test_rejects_unknown_queue(self, mmu):
        with pytest.raises(KeyError):
            mmu.issue_batch(
                [_job()], lambda job: job.rows, "inference", queue="prefetch"
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
        assert mmu.busy_by_context["inference"] == 10
        assert mmu.busy_by_context["training"] == 30
        assert mmu.context_top_s("inference", 40) > 0
        assert mmu.context_top_s("idle-context", 40) == 0.0


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
        mmu.issue(_job(10), 4, "inference")
        mmu.issue(_job(10), 4, "inference")
        mmu.issue(_job(10), 4, "training", queue="training")
        assert mmu.queue_depth_of("inference") == 1  # one already granted
        assert mmu.queue_depth_of("training") == 1
        assert mmu.queue_depth == 2
