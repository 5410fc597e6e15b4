"""repro.exec — parallel, cache-aware experiment execution.

Turns each independent work unit of an experiment (a load point, a
scenario, a chunk of the design grid) into a pure, hashable
:class:`~repro.exec.jobs.Job` and runs job batches through a worker
pool with deterministic ordered aggregation and a content-addressed
on-disk result cache:

* :mod:`repro.exec.canonical` — the one config/result serializer
  (sorted keys, numpy coercion, the obs inf/nan policy) plus the
  source-tree ``code_fingerprint`` that keys cache invalidation;
* :mod:`repro.exec.jobs` — ``Job(fn_id, config, seed, code_version)``
  and the fn_id registry workers resolve functions through;
* :mod:`repro.exec.cache` — byte-verified, schema-checked, self-
  evicting :class:`~repro.exec.cache.ResultCache`;
* :mod:`repro.exec.scheduler` — :class:`~repro.exec.scheduler.
  ProcessPoolScheduler` (worker reuse, bounded in-flight window, per-job
  timeout, bounded crash retries) and the
  :class:`~repro.exec.scheduler.JobRunner` facade experiments accept;
* :mod:`repro.exec.cli` — the shared executor flags and the ``sweep``
  subcommand.

The determinism guarantee: for any job batch, results are aggregated
in submission order and normalized through the canonical JSON round
trip, so ``--jobs 8``, ``--jobs 1`` and a cache replay produce
bit-identical artifacts.
"""
