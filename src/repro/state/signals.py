"""Graceful SIGINT/SIGTERM handling for ``python -m repro`` runs.

The CLI wraps the dispatch of every job-running command in
:class:`GracefulShutdown`; the job scheduler calls ``check()`` at its
barriers (between jobs). A signal does not interrupt mid-computation —
it flips a flag, and the next ``check()`` raises
:class:`ShutdownRequested`, at which point the caller flushes any
partial RunReport and exits with the conventional ``128 + signum``
code and a named reason instead of a traceback. A second signal while
the first is still pending restores the default handler, so an
impatient double Ctrl-C still kills the process immediately.
"""

import signal
from types import FrameType, TracebackType
from typing import Optional, Type

__all__ = ["GracefulShutdown", "ShutdownRequested"]

_HANDLED = (signal.SIGINT, signal.SIGTERM)


class ShutdownRequested(RuntimeError):
    """A handled signal arrived; unwind from a job boundary and exit."""

    def __init__(self, signum: int):
        self.signum = int(signum)
        self.signame = signal.Signals(signum).name
        super().__init__(f"shutdown requested by {self.signame}")

    @property
    def exit_code(self) -> int:
        """The shell convention for signal exits: ``128 + signum``
        (130 for SIGINT, 143 for SIGTERM)."""
        return 128 + self.signum


class GracefulShutdown:
    """Context manager that converts SIGINT/SIGTERM into a polled flag.

    Usage::

        with GracefulShutdown() as shutdown:
            for unit in work:
                shutdown.check()   # raises ShutdownRequested if signalled
                run(unit)

    Handlers are installed on ``__enter__`` and restored on
    ``__exit__``; nesting is unsupported (and unnecessary — one
    instance guards one CLI invocation).
    """

    def __init__(self) -> None:
        self._pending: Optional[int] = None
        self._previous: dict = {}

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        if self._pending is not None:
            # Second signal: the user means it. Fall back to the default
            # disposition so the *next* one terminates immediately.
            for signo in _HANDLED:
                signal.signal(signo, signal.SIG_DFL)
        self._pending = signum

    def __enter__(self) -> "GracefulShutdown":
        for signo in _HANDLED:
            self._previous[signo] = signal.signal(signo, self._handle)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        for signo, handler in self._previous.items():
            signal.signal(signo, handler)
        self._previous.clear()

    @property
    def pending(self) -> Optional[int]:
        """The signal number waiting to be honoured, if any."""
        return self._pending

    def check(self) -> None:
        """Raise :class:`ShutdownRequested` if a signal has arrived."""
        if self._pending is not None:
            raise ShutdownRequested(self._pending)
