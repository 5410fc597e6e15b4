"""Crash-consistent checkpoint/restore for long-running experiments.

The package has two pieces:

* :mod:`repro.state.checkpoint` — the ``repro.state/checkpoint/v1``
  canonical-JSON schema, self-checksummed atomic checkpoint files
  (:class:`CheckpointStore`) and the append-only
  :class:`CompletionJournal` the execution engine replays on
  ``--resume``;
* :mod:`repro.state.signals` — graceful SIGINT/SIGTERM handling
  (:class:`GracefulShutdown` / :class:`ShutdownRequested`) so an
  interrupted run writes a final checkpoint and exits with a named
  reason instead of a traceback.

The contract everything here serves is **bit-exact resume**: a run
killed and restarted with ``--resume`` replays its completion journal
and must produce artifacts byte-identical to the uninterrupted run
(see DESIGN.md, "Checkpoint & resume"). The journal is the only
recovery mechanism; no simulator object is ever saved or restored.
"""

from repro.state.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointStore,
    CompletionJournal,
    read_checkpoint,
    write_checkpoint,
)
from repro.state.signals import GracefulShutdown, ShutdownRequested

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointStore",
    "CompletionJournal",
    "GracefulShutdown",
    "ShutdownRequested",
    "read_checkpoint",
    "write_checkpoint",
]
