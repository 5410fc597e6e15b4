"""Shared-resource models: serial units and bandwidth channels.

These are the contention points the paper's cycle-accurate simulator
models beyond the analytical equations: execution units that serve one
operation at a time (the SIMD unit), and the DRAM link, which
serializes transfers at a given bytes-per-cycle rate.
"""

import heapq
import itertools
from collections import deque
from typing import Callable, Optional

from repro.sim.engine import Simulator


class SerialResource:
    """A unit that serves one request at a time with priority queueing.

    Requests carry a duration (cycles of occupancy) and a priority
    (lower value = more urgent); ties break FIFO. The done callback
    (optional) fires when service completes.

    Busy time is integrated, so :meth:`utilization` reads the busy
    share of a window.
    """

    def __init__(self, sim: Simulator, name: str = "resource"):
        self.sim = sim
        self.name = name
        self._queue: list = []
        self._seq = itertools.count()
        self._busy_until = 0.0
        #: ``on_done`` of every started, not yet completed service, in
        #: start order — which is completion order: a service starts
        #: only once the previous one's completion time has come, so it
        #: completes no earlier, and a tie fires in schedule order.
        self._in_service: deque = deque()
        self.busy_cycles = 0.0

    def request(
        self,
        duration: float,
        on_done: Optional[Callable[[], None]] = None,
        priority: int = 0,
    ) -> None:
        """Enqueue a request for ``duration`` cycles of exclusive service."""
        if not duration >= 0:
            raise ValueError(f"negative duration {duration}")
        if not self._queue and self._busy_until <= self.sim.now:
            # Idle with nobody waiting: the request would be pushed and
            # popped straight back, so start it directly.
            self._start(duration, on_done)
            return
        heapq.heappush(
            self._queue, (priority, next(self._seq), duration, on_done)
        )
        self._pump()

    def _pump(self) -> None:
        # While busy, the in-service request's completion re-pumps.
        if not self._queue or self._busy_until > self.sim.now:
            return
        _priority, _seq, duration, on_done = heapq.heappop(self._queue)
        self._start(duration, on_done)

    def _start(
        self, duration: float, on_done: Optional[Callable[[], None]]
    ) -> None:
        self._busy_until = self.sim.now + duration
        self.busy_cycles += duration
        # Completions are never cancelled: use the anonymous lane and
        # skip the Event allocation on the busiest event class.
        self._in_service.append(on_done)
        self.sim.after_call(duration, self._complete)

    def _complete(self) -> None:
        on_done = self._in_service.popleft()
        if on_done is not None:
            on_done()
        self._pump()

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of cycles busy over ``horizon`` (default: now)."""
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)


class BandwidthChannel:
    """A link that serializes transfers at ``bytes_per_cycle``.

    A transfer of S bytes occupies the channel for S/bytes_per_cycle
    cycles and completes ``fixed_latency`` cycles after its last byte —
    the standard pipe model the paper validated against DRAMSim for
    512-bit blocks.
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_cycle: float,
        fixed_latency: float = 0.0,
        name: str = "channel",
    ):
        if bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bytes_per_cycle = bytes_per_cycle
        self.fixed_latency = fixed_latency
        self.name = name
        self._pipe = SerialResource(sim, name)
        self.bytes_transferred = 0.0

    def transfer(
        self,
        size_bytes: float,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue a transfer; ``on_done`` fires after latency + serialization.

        Transfers cross the link in arrival order."""
        if not size_bytes >= 0:
            raise ValueError(f"negative transfer size {size_bytes}")
        occupancy = size_bytes / self.bytes_per_cycle
        self.bytes_transferred += size_bytes

        def _after_pipe() -> None:
            if on_done is None:
                return
            if self.fixed_latency > 0:
                self.sim.after_call(self.fixed_latency, on_done)
            else:
                on_done()

        self._pipe.request(occupancy, on_done=_after_pipe)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of the channel's bandwidth consumed so far."""
        return self._pipe.utilization(horizon)
