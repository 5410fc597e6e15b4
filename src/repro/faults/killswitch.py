"""Deterministic self-SIGKILL: the crash half of crash-recovery drills.

A :class:`KillSwitch` counts completed work units and, when the count
reaches its threshold, sends the *current process* an uncatchable
SIGKILL. Nothing between the count and the kill is probabilistic, so a
drill is reproducible: ``--kill-after 3`` dies after exactly three
completions every time, and CI can assert that a ``--resume`` of the
survivor converges to the byte-identical artifact.

The kill fires *after* the unit's completion has been journaled — the
point of the drill is to die with durable partial progress, mirroring
the real preemption the completion journal defends against. SIGKILL (not
``sys.exit``/``os._exit``) is deliberate: no atexit hooks, no finally
blocks, no buffered flushes — the hardest crash the OS can deliver
short of pulling power.
"""

import os
import signal

__all__ = ["KillSwitch"]


class KillSwitch:
    """Dies (SIGKILL) when ``note_unit_done`` has been called ``after``
    times."""

    def __init__(self, after: int):
        if after < 1:
            raise ValueError(f"--kill-after must be >= 1, got {after}")
        self.after = after
        self.units_done = 0

    def note_unit_done(self) -> None:
        """Count one completed work unit; kill the process at the mark."""
        self.units_done += 1
        if self.units_done >= self.after:
            os.kill(os.getpid(), signal.SIGKILL)
