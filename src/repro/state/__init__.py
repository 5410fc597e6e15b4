"""Crash-consistent resume for long-running experiments.

The package has two pieces:

* :mod:`repro.state.checkpoint` — the append-only, self-checksummed
  :class:`~repro.state.checkpoint.CompletionJournal`
  (``<dir>/journal.jsonl``) the execution engine replays on
  ``--resume``;
* :mod:`repro.state.signals` — graceful SIGINT/SIGTERM handling
  (:class:`~repro.state.signals.GracefulShutdown` /
  :class:`~repro.state.signals.ShutdownRequested`) so an interrupted
  run stops at a journal-consistent job boundary and exits with a
  named reason instead of a traceback.

The contract everything here serves is **bit-exact resume**: a run
killed and restarted with ``--resume`` replays its completion journal
and must produce artifacts byte-identical to the uninterrupted run
(see DESIGN.md, "Checkpoint & resume"). The journal is the only
recovery mechanism; no simulator object is ever saved or restored.
"""
