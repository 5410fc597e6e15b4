"""repro.exec — parallel, cache-aware experiment execution.

Turns every experiment into a pure, hashable :class:`Job` and runs job
batches through a worker pool with deterministic ordered aggregation
and a content-addressed on-disk result cache:

* :mod:`repro.exec.canonical` — the one config/result serializer
  (sorted keys, numpy coercion, the obs inf/nan policy) plus the
  source-tree ``code_fingerprint`` that keys cache invalidation;
* :mod:`repro.exec.jobs` — ``Job(fn_id, config, seed, code_version)``
  and the fn_id registry workers resolve functions through;
* :mod:`repro.exec.cache` — byte-verified, schema-checked, self-
  evicting :class:`ResultCache`;
* :mod:`repro.exec.scheduler` — :class:`ProcessPoolScheduler` (worker
  reuse, bounded in-flight window, per-job timeout, bounded crash
  retries) and the :class:`JobRunner` facade experiments accept;
* :mod:`repro.exec.cli` — the shared executor flags and the ``sweep``
  subcommand.

The determinism guarantee: for any job batch, results are aggregated
in submission order and normalized through the canonical JSON round
trip, so ``--jobs 8``, ``--jobs 1`` and a cache replay produce
bit-identical artifacts.
"""

from repro.exec.cache import CacheStats, ResultCache, open_cache
from repro.exec.canonical import (
    canonical_json,
    code_fingerprint,
    config_digest,
)
from repro.exec.jobs import Job, available_jobs, register_job, resolve_job
from repro.exec.scheduler import (
    JobExecutionError,
    JobRunner,
    ProcessPoolScheduler,
    resolve_jobs,
    run_jobs,
)

__all__ = [
    "CacheStats",
    "Job",
    "JobExecutionError",
    "JobRunner",
    "ProcessPoolScheduler",
    "ResultCache",
    "available_jobs",
    "canonical_json",
    "code_fingerprint",
    "config_digest",
    "open_cache",
    "register_job",
    "resolve_job",
    "resolve_jobs",
    "run_jobs",
]
