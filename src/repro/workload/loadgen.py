"""Inference arrival processes.

Online inference tiers see Poisson-like request arrivals (paper §5);
the generators here produce inter-arrival gaps in cycles for the
simulator's arrival loop. All processes are deterministic given a seed.

:class:`FaultyArrivals` decorates any base process with front-end
network faults from a :class:`repro.faults.plan.RequestFaultSpec`:
dropped requests (the arrival never happens — consecutive gaps merge)
and delayed requests (the arrival, and the stream behind it, reaches
the queue late). Both are sampled from a seeded fault-plan substream,
so a lossy trace replays identically.
"""

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.counters import FaultCounters
from repro.faults.plan import FaultPlan


class ArrivalProcess:
    """Produces inter-arrival gaps (cycles) one at a time."""

    def next_gap(self) -> float:
        raise NotImplementedError

    def next_gaps(self, n: int) -> List[float]:
        """``n`` consecutive gaps, identical to ``n`` next_gap() calls.

        The contract is *stream equality*: the returned gaps AND the
        generator's post-call RNG position must match the scalar loop
        exactly, so callers may mix scalar and batched draws freely.
        This generic fallback simply loops; subclasses with
        data-independent draws override it with one vectorized draw
        (see :meth:`PoissonArrivals.next_gaps`). Processes whose draw
        count depends on sampled values (:class:`FaultyArrivals`' drop
        loop) must keep the loop — a fixed-size vector draw would
        consume the wrong number of variates.
        """
        if n < 0:
            raise ValueError(f"negative batch size {n}")
        return [self.next_gap() for _ in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed mean rate.

    Attributes:
        rate_per_cycle: Mean arrivals per cycle (λ).
        seed: RNG seed — an int, or a sequence of ints for a keyed
            substream (``[seed, crc32(label), index]``, the
            ``repro.faults`` discipline); equal seeds produce equal
            traces, keeping experiments reproducible.
    """

    def __init__(self, rate_per_cycle: float, seed: Union[int, Sequence[int]] = 0):
        if not rate_per_cycle > 0:
            raise ValueError("arrival rate must be positive")
        self.rate_per_cycle = rate_per_cycle
        self._scale = 1.0 / rate_per_cycle
        self._rng = np.random.default_rng(seed)

    def next_gap(self) -> float:
        return float(self._rng.exponential(self._scale))

    def next_gaps(self, n: int) -> List[float]:
        """One vectorized exponential draw, stream-equal to ``n``
        scalar draws — numpy fills the array with the same ziggurat
        routine the scalar path runs, so the variates and the final RNG
        position are bit-identical (locked by test)."""
        if n < 0:
            raise ValueError(f"negative batch size {n}")
        return self._rng.exponential(self._scale, n).tolist()


class UniformArrivals(ArrivalProcess):
    """Fixed-gap arrivals — the zero-variance reference for tests."""

    def __init__(self, gap_cycles: float):
        if gap_cycles <= 0:
            raise ValueError("gap must be positive")
        self.gap_cycles = gap_cycles

    def next_gap(self) -> float:
        return self.gap_cycles


class FaultyArrivals(ArrivalProcess):
    """A base arrival process seen through a lossy, laggy front end.

    Drops thin the stream (a dropped request's gap merges into the
    next survivor's), delays stretch it; both are counted in the shared
    :class:`FaultCounters` so reports show how much offered load the
    network itself destroyed.

    Attributes:
        base: The undisturbed arrival process.
        plan: The fault plan whose ``requests`` spec and seed drive the
            injection (substream ``"arrivals"``).
        counters: Shared fault/recovery counters.
    """

    def __init__(
        self,
        base: ArrivalProcess,
        plan: FaultPlan,
        counters: Optional[FaultCounters] = None,
    ):
        self.base = base
        self.spec = plan.requests
        self.counters = counters if counters is not None else FaultCounters()
        self._rng = plan.rng("arrivals")

    def next_gap(self) -> float:
        spec = self.spec
        gap = self.base.next_gap()
        while spec.drop_rate > 0 and self._rng.random() < spec.drop_rate:
            self.counters.requests_dropped += 1
            gap += self.base.next_gap()
        if (
            spec.delay_rate > 0
            and spec.delay_cycles > 0
            and self._rng.random() < spec.delay_rate
        ):
            self.counters.requests_delayed += 1
            gap += spec.delay_cycles
        return gap


class MixedArrivals(ArrivalProcess):
    """Deterministic merge of K independent arrival streams.

    Each component stream (one per tenant in ``repro.serve``) keeps its
    own clock; the compositor emits the globally next arrival and tags
    it with its source stream index. Component gaps are drawn in blocks
    through :meth:`ArrivalProcess.next_gaps`, so a fault-free
    :class:`PoissonArrivals` component refills with one vectorized draw
    while a :class:`FaultyArrivals` component keeps its data-dependent
    scalar loop — the stream-equality contract makes both identical to
    scalar draws.

    Ties between streams break on the lower stream index, so the merge
    order is a pure function of the component seeds.

    Attributes:
        streams: The component processes, in tenant registration order.
        last_source: Index of the stream that produced the most recent
            :meth:`next_gap` arrival (``None`` before the first draw).
    """

    def __init__(self, streams: Sequence[ArrivalProcess], block: int = 64):
        if not streams:
            raise ValueError("need at least one component stream")
        if block < 1:
            raise ValueError(f"refill block must be >= 1, got {block}")
        self.streams = list(streams)
        self._block = block
        #: Per-stream buffered *absolute* arrival times, ascending.
        self._pending: List[Deque[float]] = [deque() for _ in self.streams]
        #: Per-stream clock: absolute time of the last buffered arrival.
        self._clocks: List[float] = [0.0 for _ in self.streams]
        #: Merged-stream clock: absolute time of the last emitted arrival.
        self._now = 0.0
        self.last_source: Optional[int] = None

    def _refill(self, index: int) -> None:
        clock = self._clocks[index]
        pending = self._pending[index]
        for gap in self.streams[index].next_gaps(self._block):
            clock += gap
            pending.append(clock)
        self._clocks[index] = clock

    def next_tagged(self) -> Tuple[float, int]:
        """The next merged gap plus its source stream index."""
        for index, pending in enumerate(self._pending):
            if not pending:
                self._refill(index)
        winner = min(
            range(len(self.streams)), key=lambda i: (self._pending[i][0], i)
        )
        arrival = self._pending[winner].popleft()
        gap = arrival - self._now
        self._now = arrival
        self.last_source = winner
        return gap, winner

    def next_gap(self) -> float:
        gap, _ = self.next_tagged()
        return gap


class TraceArrivals(ArrivalProcess):
    """Replays a recorded gap trace, cycling when exhausted."""

    def __init__(self, gaps_cycles: Sequence[float]):
        gaps = [float(g) for g in gaps_cycles]
        if not gaps or min(gaps) < 0:
            raise ValueError("trace needs non-negative gaps")
        self._gaps = gaps
        self._index = 0

    def next_gap(self) -> float:
        gap = self._gaps[self._index]
        self._index = (self._index + 1) % len(self._gaps)
        return gap
