"""Shared-resource models: serial units, port sets, bandwidth channels.

These are the contention points the paper's cycle-accurate simulator
models beyond the analytical equations: execution units that serve one
operation at a time, SRAM ports with a fixed width, and links (DRAM,
host) that serialize transfers at a given bytes-per-cycle rate.
"""

import heapq
import itertools
from collections import deque
from typing import Callable, Optional

from repro.sim.engine import Simulator


class SerialResource:
    """A unit that serves one request at a time with priority queueing.

    Requests carry a duration (cycles of occupancy) and a priority
    (lower value = more urgent); ties break FIFO. The grant callback
    fires when service *starts*; the done callback (optional) fires when
    it completes.

    Busy-time is integrated so cycle-accounting (Figure 8) can read
    utilization per category via the ``account`` tag passed at request
    time.
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
        self.busy_by_tag: dict = {}

    @property
    def queue_depth(self) -> int:
        """Number of requests waiting for service."""
        return len(self._queue)

    @property
    def is_busy(self) -> bool:
        """Whether a request is currently in service."""
        return self._busy_until > self.sim.now

    def request(
        self,
        duration: float,
        on_grant: Optional[Callable[[], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
        priority: int = 0,
        tag: str = "work",
    ) -> None:
        """Enqueue a request for ``duration`` cycles of exclusive service."""
        if not duration >= 0:
            raise ValueError(f"negative duration {duration}")
        if not self._queue and self._busy_until <= self.sim.now:
            # Idle with nobody waiting: the request would be pushed and
            # popped straight back, so start it directly.
            self._start(duration, on_grant, on_done, tag)
            return
        heapq.heappush(
            self._queue,
            (priority, next(self._seq), duration, on_grant, on_done, tag),
        )
        self._pump()

    def _pump(self) -> None:
        # While busy, the in-service request's completion re-pumps.
        if not self._queue or self._busy_until > self.sim.now:
            return
        _priority, _seq, duration, on_grant, on_done, tag = heapq.heappop(
            self._queue
        )
        self._start(duration, on_grant, on_done, tag)

    def _start(
        self,
        duration: float,
        on_grant: Optional[Callable[[], None]],
        on_done: Optional[Callable[[], None]],
        tag: str,
    ) -> None:
        self._busy_until = self.sim.now + duration
        self.busy_cycles += duration
        self.busy_by_tag[tag] = self.busy_by_tag.get(tag, 0.0) + duration
        # Completions are never cancelled: use the anonymous lane and
        # skip the Event allocation on the busiest event class. The
        # completion is scheduled before ``on_grant`` runs, so a service
        # that ``on_grant`` starts re-entrantly (possible only after a
        # zero-duration one) is scheduled, and completes, after it.
        self._in_service.append(on_done)
        self.sim.after_call(duration, self._complete)
        if on_grant is not None:
            on_grant()

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


class PortSet:
    """``count`` identical ports in front of a structure (an SRAM bank).

    Requests are granted on the first free port; excess requests queue
    with priority. This models read/write port contention in the
    activation and weight buffers.
    """

    def __init__(self, sim: Simulator, count: int, name: str = "ports"):
        if count < 1:
            raise ValueError("a port set needs at least one port")
        self.ports = [SerialResource(sim, f"{name}[{i}]") for i in range(count)]

    def request(
        self,
        duration: float,
        on_grant: Optional[Callable[[], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
        priority: int = 0,
        tag: str = "work",
    ) -> None:
        """Route the request to the least-loaded port (idle ports first,
        then shortest queue; ties to the lowest-numbered port)."""
        target = min(
            self.ports,
            key=lambda p: (p.queue_depth + (1 if p.is_busy else 0)),
        )
        target.request(duration, on_grant, on_done, priority, tag)

    @property
    def busy_cycles(self) -> float:
        return sum(p.busy_cycles for p in self.ports)


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
        priority: int = 0,
        tag: str = "data",
    ) -> None:
        """Enqueue a transfer; ``on_done`` fires after latency + serialization."""
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

        self._pipe.request(
            occupancy, on_done=_after_pipe, priority=priority, tag=tag
        )

    @property
    def queue_depth(self) -> int:
        return self._pipe.queue_depth

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of the channel's bandwidth consumed so far."""
        return self._pipe.utilization(horizon)
