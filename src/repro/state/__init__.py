"""Crash-consistent checkpoint/restore for long-running experiments.

The package has three pieces:

* :mod:`repro.state.checkpoint` — the ``repro.state/checkpoint/v1``
  canonical-JSON schema, self-checksummed atomic checkpoint files
  (:class:`CheckpointStore`) and the append-only
  :class:`CompletionJournal` the execution engine replays on
  ``--resume``;
* :mod:`repro.state.protocol` — the ``to_state``/``from_state``
  snapshot contract (:class:`SnapshotError` and RNG-stream helpers);
* :mod:`repro.state.signals` — graceful SIGINT/SIGTERM handling
  (:class:`GracefulShutdown` / :class:`ShutdownRequested`) so an
  interrupted run writes a final checkpoint and exits with a named
  reason instead of a traceback.

The contract everything here serves is **bit-exact resume**:
``snapshot -> kill -> restore -> continue`` must produce artifacts
byte-identical to the uninterrupted run (see DESIGN.md, "Checkpoint &
resume").
"""

from repro.state.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointStore,
    CompletionJournal,
    read_checkpoint,
    write_checkpoint,
)
from repro.state.protocol import SnapshotError, restore_rng, rng_state
from repro.state.signals import GracefulShutdown, ShutdownRequested

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointStore",
    "CompletionJournal",
    "GracefulShutdown",
    "ShutdownRequested",
    "SnapshotError",
    "read_checkpoint",
    "restore_rng",
    "rng_state",
    "write_checkpoint",
]
