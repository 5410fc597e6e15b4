"""Job execution: serial fast path and the process-pool scheduler.

Design goals, in priority order:

1. **Determinism** — results are aggregated in *submission order*
   regardless of completion order, and every result (serial, parallel
   or cached) is normalized through the canonical JSON round-trip, so
   ``--jobs 8`` is bit-identical to ``--jobs 1``.
2. **Isolation** — a worker crash (``BrokenProcessPool``) or a per-job
   wall-clock timeout poisons only the in-flight window: the pool is
   respawned and the affected jobs re-queued under a *bounded* retry
   budget (the same philosophy as :mod:`repro.faults`' ``max_retries``
   — recovery always terminates). A job function *raising* is
   deterministic by the purity contract and therefore never retried.
3. **Bounded memory** — at most four jobs per worker are submitted at
   once, so a million-point sweep never materializes a million futures.

Workers are reused across jobs (one ``ProcessPoolExecutor`` for the
whole run); each worker imports the job function through the registry,
so nothing but ``(fn_id, config, seed)`` ever crosses the pipe.
"""

import os
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.jobs import Job, run_job
from repro.state.checkpoint import CompletionJournal

__all__ = [
    "JobExecutionError",
    "JobRunner",
    "ProcessPoolScheduler",
    "resolve_jobs",
]

#: Default per-job retry budget for *infrastructure* failures (worker
#: crash, timeout). Deterministic job exceptions are never retried.
DEFAULT_MAX_RETRIES = 2


class JobExecutionError(RuntimeError):
    """A job failed beyond recovery (raised, or exhausted its budget)."""

    def __init__(self, job: Job, reason: str):
        super().__init__(f"{job!r} failed: {reason}")
        self.job = job
        self.reason = reason


def resolve_jobs(value: "str | int | None") -> int:
    """Parse a ``--jobs`` value: int, ``"auto"`` (CPU count) or None."""
    if value is None:
        return 1
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        value = int(value)
    if value < 1:
        raise ValueError(f"--jobs must be >= 1 or 'auto', got {value}")
    return value


def _execute(fn_id: str, config: Any, seed: int) -> Any:
    """Worker-side entry point (module-level: picklable under spawn)."""
    return run_job(fn_id, config, seed)


class _OrderedResults:
    """One batch's results by submission index, handed to ``on_result``
    in submission order as the settled prefix grows."""

    def __init__(
        self, size: int, on_result: Optional[Callable[[Any], None]]
    ) -> None:
        self.values: List[Any] = [None] * size
        self._settled = [False] * size
        self._on_result = on_result
        self._next = 0

    def settle(self, index: int, value: Any) -> None:
        self.values[index] = value
        self._settled[index] = True
        while self._next < len(self.values) and self._settled[self._next]:
            if self._on_result is not None:
                self._on_result(self.values[self._next])
            self._next += 1


class ProcessPoolScheduler:
    """Runs job batches on a reusable worker pool.

    Args:
        workers: Pool size; ``1`` short-circuits to in-process serial
            execution (no pool, no pickling — but the same canonical
            result normalization).
        cache: Optional :class:`ResultCache` consulted before and
            written after every execution (single-writer: only the
            parent process touches the cache directory).
        timeout_s: Per-job wall-clock budget once the job's future is
            the oldest in flight; ``None`` disables. On expiry the pool
            is torn down (hung workers are killed) and the in-flight
            window is re-queued within the retry budget.
        max_retries: Infrastructure-failure budget *per job*.
        journal: Optional completion journal
            (:class:`repro.state.checkpoint.CompletionJournal`).
            Consulted *before* the cache — a journaled result is this
            exact run's durably fsynced output — and appended after
            every execution, which is the crash-consistency barrier: a
            job whose result made the journal is never re-run on
            ``--resume``.
        shutdown_check: Polled between jobs; expected to raise (e.g.
            :class:`repro.state.signals.ShutdownRequested`) to stop
            cleanly at a job boundary, after the journal append.
        on_unit_done: Called once per completed job *after* its journal
            append — the hook the crash-recovery drill's kill switch
            counts work units on, so a SIGKILL always lands on a
            journal-consistent state.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        journal: Optional[CompletionJournal] = None,
        shutdown_check: Optional[Callable[[], None]] = None,
        on_unit_done: Optional[Callable[[], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.journal = journal
        self.shutdown_check = shutdown_check
        self.on_unit_done = on_unit_done
        #: Faults-style counters: how the run degraded, never hidden.
        self.counters: Dict[str, int] = {
            "executed": 0, "cache_hits": 0, "journal_hits": 0,
            "crashes": 0, "timeouts": 0, "retries": 0,
        }

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> List[Any]:
        """Execute ``jobs``, returning results in submission order.

        ``on_result`` receives each result in submission order as soon
        as every earlier job's result is in, so a run stopped part-way
        (a shutdown check raising) has handed over exactly its
        completed prefix.
        """
        jobs = list(jobs)
        results = _OrderedResults(len(jobs), on_result)
        todo: List[int] = []
        for index, job in enumerate(jobs):
            if self.journal is not None:
                key = job.digest()
                if key in self.journal:
                    results.settle(index, self.journal.get(key))
                    self.counters["journal_hits"] += 1
                    continue
            if self.cache is not None:
                hit, value = self.cache.get(job)
                if hit:
                    results.settle(index, value)
                    self.counters["cache_hits"] += 1
                    continue
            todo.append(index)
        if not todo:
            return results.values
        if self.workers <= 1:
            self._run_serial(jobs, todo, results)
        else:
            self._run_pool(jobs, todo, results)
        return results.values

    def _complete(self, job: Job, value: Any) -> None:
        """Post-execution barrier, in crash-consistency order: journal
        (durable) first, then cache (advisory), then the work-unit hook
        — so any interruption after this method began either left no
        journal line (job re-runs) or a complete one (job is skipped on
        resume)."""
        self.counters["executed"] += 1
        if self.journal is not None:
            self.journal.append(job.digest(), value)
        if self.cache is not None:
            self.cache.put(job, value)
        if self.on_unit_done is not None:
            self.on_unit_done()

    # ------------------------------------------------------------------
    # Serial fast path
    # ------------------------------------------------------------------

    def _run_serial(
        self, jobs: Sequence[Job], todo: Sequence[int],
        results: "_OrderedResults",
    ) -> None:
        for index in todo:
            if self.shutdown_check is not None:
                self.shutdown_check()
            job = jobs[index]
            try:
                value = _execute(job.fn_id, job.config, job.seed)
            except Exception as exc:
                raise JobExecutionError(job, f"raised {exc!r}") from exc
            self._complete(job, value)
            results.settle(index, value)

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if a worker is wedged, and wait for it.

        SIGKILL, not SIGTERM: workers forked under the CLI's
        ``GracefulShutdown`` inherit its handler, which turns SIGTERM
        into a flag a sleeping or looping job never polls. Waiting for
        the pool's manager thread to reap the workers means no thread
        or child outlives the run to race interpreter exit.
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.kill()
            except Exception:  # eqx: ignore[EQX303] — best-effort kill
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _run_pool(
        self, jobs: Sequence[Job], todo: Sequence[int],
        results: "_OrderedResults",
    ) -> None:
        queue = deque(todo)
        attempts = {index: 0 for index in todo}
        inflight: "deque[tuple[int, Any]]" = deque()
        window = 4 * self.workers
        pool = self._new_pool()
        try:
            while queue or inflight:
                if self.shutdown_check is not None:
                    self.shutdown_check()
                while queue and len(inflight) < window:
                    index = queue.popleft()
                    job = jobs[index]
                    inflight.append(
                        (index, pool.submit(
                            _execute, job.fn_id, job.config, job.seed
                        ))
                    )
                # Wait on the *oldest* future: aggregation is ordered
                # anyway, so nothing is gained by racing completions.
                index, future = inflight.popleft()
                try:
                    value = future.result(timeout=self.timeout_s)
                except FutureTimeoutError:
                    self.counters["timeouts"] += 1
                    pool = self._recover(
                        pool, jobs, queue, inflight, attempts,
                        index, "timed out",
                    )
                    continue
                except BrokenProcessPool:
                    self.counters["crashes"] += 1
                    pool = self._recover(
                        pool, jobs, queue, inflight, attempts,
                        index, "worker crashed",
                    )
                    continue
                except Exception as exc:
                    # Deterministic failure: the job itself raised.
                    raise JobExecutionError(
                        jobs[index], f"raised {exc!r}"
                    ) from exc
                self._complete(jobs[index], value)
                results.settle(index, value)
        finally:
            self._kill_pool(pool)

    def _recover(
        self,
        pool: ProcessPoolExecutor,
        jobs: Sequence[Job],
        queue: "deque[int]",
        inflight: "deque[tuple[int, Any]]",
        attempts: Dict[int, int],
        failed_index: int,
        reason: str,
    ) -> ProcessPoolExecutor:
        """Respawn the pool and re-queue the in-flight window.

        A crash/timeout cannot always be attributed to one job (a
        broken pool fails every outstanding future), so the whole
        window is charged one attempt — the budget still bounds total
        respawns per job, and innocent victims complete on the next
        pass.
        """
        self._kill_pool(pool)
        window = [failed_index] + [index for index, _ in inflight]
        inflight.clear()
        for index in reversed(window):
            attempts[index] += 1
            if attempts[index] > self.max_retries:
                raise JobExecutionError(
                    jobs[index],
                    f"{reason}; retry budget of {self.max_retries} "
                    "exhausted",
                )
            self.counters["retries"] += 1
            queue.appendleft(index)
        return self._new_pool()


class JobRunner:
    """The executor handle experiment code passes around.

    Thin, picklable-free facade binding a worker count, an optional
    cache directory and the timeout/retry policy; ``map`` runs one
    batch. ``JobRunner(jobs=1)`` is the always-available serial engine
    — experiment code never branches on "parallel or not", it just
    builds jobs and maps them.
    """

    def __init__(
        self,
        jobs: "str | int | None" = 1,
        cache_dir: "str | os.PathLike[str] | None" = None,
        timeout_s: Optional[float] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        checkpoint_dir: "str | os.PathLike[str] | None" = None,
        resume: bool = False,
        shutdown_check: Optional[Callable[[], None]] = None,
        on_unit_done: Optional[Callable[[], None]] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.journal = None
        if checkpoint_dir is not None:
            journal_path = os.path.join(
                os.fspath(checkpoint_dir), "journal.jsonl"
            )
            if not resume and os.path.exists(journal_path):
                # A fresh (non-resuming) run must not silently reuse a
                # previous campaign's completions.
                os.unlink(journal_path)
            self.journal = CompletionJournal(journal_path)
        self.scheduler = ProcessPoolScheduler(
            workers=self.jobs,
            cache=self.cache,
            timeout_s=timeout_s,
            max_retries=max_retries,
            journal=self.journal,
            shutdown_check=shutdown_check,
            on_unit_done=on_unit_done,
        )

    def map(
        self,
        jobs: Sequence[Job],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> List[Any]:
        """Run ``jobs``; see :meth:`ProcessPoolScheduler.run`."""
        return self.scheduler.run(jobs, on_result)

    @property
    def counters(self) -> Dict[str, int]:
        return dict(self.scheduler.counters)

    def __repr__(self) -> str:
        cache = (
            str(self.cache.directory) if self.cache is not None else None
        )
        return f"JobRunner(jobs={self.jobs}, cache_dir={cache!r})"

