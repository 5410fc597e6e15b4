"""Scheduler: ordering, parity, crash/timeout isolation, budgets."""

import multiprocessing
import threading

import pytest

from repro.exec.jobs import Job
from repro.exec.scheduler import (
    JobExecutionError,
    JobRunner,
    ProcessPoolScheduler,
    resolve_jobs,
)
from repro.state.signals import GracefulShutdown


def _echo_jobs(count, code_version="v1"):
    return [
        Job(
            "exec.probe",
            {"mode": "echo", "payload": i},
            seed=i,
            code_version=code_version,
        )
        for i in range(count)
    ]


class TestResolveJobs:
    def test_values(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs("5") == 5
        assert resolve_jobs("auto") >= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs("-2")


class TestSerial:
    def test_results_in_submission_order(self):
        results = JobRunner(jobs=1).map(_echo_jobs(8))
        assert [r["payload"] for r in results] == list(range(8))

    def test_deterministic_failure_raises(self):
        runner = JobRunner(jobs=1)
        with pytest.raises(JobExecutionError, match="raised"):
            runner.map([Job("exec.probe", {"mode": "raise"})])

    def test_counters(self):
        runner = JobRunner(jobs=1)
        runner.map(_echo_jobs(3))
        assert runner.counters["executed"] == 3


class TestOnResult:
    """``on_result`` sees each result in submission order, as soon as
    every earlier one is in — so a stopped run has handed over exactly
    its completed prefix."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sees_every_result_in_order(self, workers):
        seen = []
        results = JobRunner(jobs=workers).map(_echo_jobs(6), seen.append)
        assert seen == results
        assert [r["payload"] for r in seen] == list(range(6))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_stopped_run_handed_over_its_completed_prefix(self, workers):
        class Stop(Exception):
            pass

        checks = []

        def shutdown_check():
            checks.append(None)
            if len(checks) > 3:
                raise Stop

        seen = []
        runner = JobRunner(jobs=workers, shutdown_check=shutdown_check)
        with pytest.raises(Stop):
            runner.map(_echo_jobs(8), seen.append)
        completed = runner.counters["executed"]
        assert 0 < completed < 8
        assert [r["payload"] for r in seen] == list(range(completed))


class TestPool:
    def test_parallel_equals_serial(self):
        jobs = _echo_jobs(12)
        assert JobRunner(jobs=2).map(jobs) == JobRunner(jobs=1).map(jobs)

    def test_order_independent_of_completion_time(self):
        """Later-submitted fast jobs must not overtake a slow first job."""
        jobs = [
            Job("exec.probe", {"mode": "sleep", "seconds": 0.4, "payload": 0}),
            Job("exec.probe", {"mode": "echo", "payload": 1}),
            Job("exec.probe", {"mode": "echo", "payload": 2}),
        ]
        results = JobRunner(jobs=2).map(jobs)
        assert [r["payload"] for r in results] == [0, 1, 2]

    def test_crash_exhausts_bounded_budget(self):
        runner = JobRunner(jobs=2, max_retries=1)
        with pytest.raises(JobExecutionError, match="retry budget"):
            runner.map([Job("exec.probe", {"mode": "crash"})])
        counters = runner.counters
        # initial attempt + 1 retry, each counted as a crash
        assert counters["crashes"] == 2
        assert counters["retries"] == 1

    def test_crash_does_not_lose_neighbors(self):
        """Healthy in-flight jobs re-run after a pool respawn."""
        jobs = _echo_jobs(6)
        jobs.insert(3, Job("exec.probe", {"mode": "crash"}))
        runner = JobRunner(jobs=2, max_retries=1)
        with pytest.raises(JobExecutionError):
            runner.map(jobs)
        # The healthy jobs alone complete despite sharing a window with
        # a crasher earlier (fresh runner, no crasher now).
        healthy = _echo_jobs(6)
        assert [r["payload"] for r in JobRunner(jobs=2).map(healthy)] == list(
            range(6)
        )

    def test_timeout_is_bounded(self):
        runner = JobRunner(jobs=2, timeout_s=0.3, max_retries=0)
        with pytest.raises(JobExecutionError, match="timed out"):
            runner.map(
                [Job("exec.probe", {"mode": "sleep", "seconds": 30})]
            )
        assert runner.counters["timeouts"] == 1

    def test_deterministic_raise_never_retried(self):
        runner = JobRunner(jobs=2, max_retries=5)
        with pytest.raises(JobExecutionError, match="raised"):
            runner.map([Job("exec.probe", {"mode": "raise"})])
        assert runner.counters["retries"] == 0


def _pool_leftovers():
    """Pool manager threads and child processes still alive."""
    managers = [
        thread.name for thread in threading.enumerate()
        if type(thread).__name__ == "_ExecutorManagerThread"
    ]
    return managers, multiprocessing.active_children()


class TestPoolTeardown:
    """Nothing a pool started outlives ``map``: a manager thread left
    running races interpreter exit, and a worker left running holds
    its CPU and memory after the command has finished."""

    def test_map_leaves_no_thread_or_child(self):
        assert JobRunner(jobs=2).map(_echo_jobs(4)) == JobRunner(
            jobs=1
        ).map(_echo_jobs(4))
        assert _pool_leftovers() == ([], [])

    def test_timed_out_job_under_graceful_shutdown_leaves_no_child(self):
        """Workers forked under the CLI's SIGTERM handler inherit it, so
        only a SIGKILL stops a job that never polls the flag."""
        runner = JobRunner(jobs=2, timeout_s=0.5, max_retries=0)
        with GracefulShutdown():
            with pytest.raises(JobExecutionError, match="timed out"):
                runner.map(
                    [Job("exec.probe", {"mode": "sleep", "seconds": 5})]
                )
        assert _pool_leftovers() == ([], [])


class TestCacheIntegration:
    def test_second_run_replays_from_disk(self, tmp_path):
        jobs = _echo_jobs(4)
        first = JobRunner(jobs=1, cache_dir=tmp_path)
        r1 = first.map(jobs)
        assert first.counters == {
            "executed": 4, "cache_hits": 0, "journal_hits": 0,
            "crashes": 0, "timeouts": 0, "retries": 0,
        }
        second = JobRunner(jobs=1, cache_dir=tmp_path)
        r2 = second.map(jobs)
        assert second.counters["cache_hits"] == 4
        assert second.counters["executed"] == 0
        assert r1 == r2

    def test_parallel_writes_cache_serial_reads(self, tmp_path):
        jobs = _echo_jobs(6)
        JobRunner(jobs=2, cache_dir=tmp_path).map(jobs)
        replay = JobRunner(jobs=1, cache_dir=tmp_path)
        assert replay.map(jobs) == JobRunner(jobs=1).map(jobs)
        assert replay.counters["cache_hits"] == 6

    def test_corrupt_entry_recomputed_transparently(self, tmp_path):
        jobs = _echo_jobs(2)
        runner = JobRunner(jobs=1, cache_dir=tmp_path)
        runner.map(jobs)
        # Corrupt one entry on disk.
        victim = runner.cache.path_for(jobs[0])
        victim.write_text("{not json")
        replay = JobRunner(jobs=1, cache_dir=tmp_path)
        results = replay.map(jobs)
        assert [r["payload"] for r in results] == [0, 1]
        assert replay.counters["cache_hits"] == 1
        assert replay.counters["executed"] == 1
        assert replay.cache.stats.evictions == 1


class TestValidation:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolScheduler(workers=0)

    def test_retry_budget_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolScheduler(max_retries=-1)
