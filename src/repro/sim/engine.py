"""Event queue and simulator kernel.

Time is measured in *cycles* of the accelerator clock, stored as floats
so that sub-cycle quantities (e.g. DRAM latencies converted from
nanoseconds) do not accumulate rounding error. Events at the same
timestamp execute in scheduling order, which keeps runs deterministic.

Hot-path layout: the heap holds ``(time, seq, event, callback)`` tuples,
not :class:`Event` objects — tuple keys compare in C during heap sifts,
where an object heap pays a Python ``__lt__`` call per comparison. Two
scheduling lanes share that heap:

* the **handle lane** (:meth:`Simulator.at` / :meth:`Simulator.after`)
  allocates an :class:`Event` handle that supports cancellation;
* the **anonymous lane** (:meth:`Simulator.at_call` /
  :meth:`Simulator.after_call`) pushes a bare ``(time, seq, None,
  callback)`` entry — no handle, no cancellation, no detach
  bookkeeping. Fire-and-forget traffic (MMU issue completions, serial
  resource completions, zero-delay hops) dominates dense workloads, and
  skipping the allocation is most of the drain fast path's win.

One drain loop (:meth:`Simulator.run`) serves both lanes, with no
per-event hook; recorded traces of fuzzed event programs
(``tests/sim/test_drain.py``) pin its contract.
"""

import heapq
import math
from typing import Callable, List, Optional, Tuple

#: Heap entry: (time, seq, Event-or-None, callback). ``seq`` is unique,
#: so heap comparisons never reach the third element.
_Entry = Tuple[float, int, Optional["Event"], Callable[[], None]]

#: Stand-in budget when ``max_events`` is None (larger than any heap).
_NO_BUDGET = 2 ** 62


#: Values :meth:`Simulator.run` returns to say why it stopped.
STOP_DRAINED = "drained"
STOP_UNTIL = "until"
STOP_MAX_EVENTS = "max_events"


class Event:
    """A cancellable handle on one scheduled callback (the handle lane).

    The heap entry itself is a ``(time, seq, event, callback)`` tuple;
    the handle only carries the cancel flag. Cancelled events are
    skipped when popped; the simulator additionally compacts the heap
    when cancelled entries outnumber live ones, so cancel-heavy
    workloads (watchdogs, speculative timeouts) keep O(live) memory
    instead of leaking every tombstone until drain.
    """

    __slots__ = ("cancelled", "_sim")

    def __init__(self, sim: "Simulator"):
        self.cancelled = False
        self._sim: Optional["Simulator"] = sim  # cleared once off the heap

    def cancel(self) -> None:
        """Prevent this event from firing."""
        if self.cancelled:
            return
        self.cancelled = True
        # Only a cancel of an event still sitting in a heap creates a
        # tombstone; events already popped (or compacted out) have been
        # detached and must not skew the tombstone count.
        if self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.at(10, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [10.0]
    """

    #: Below this heap size compaction is pointless (the scan costs more
    #: than the tombstones).
    _COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_Entry] = []
        self._seq_next = 0
        self._events_processed = 0
        self._cancelled_in_heap = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_processed

    @property
    def queue_depth(self) -> int:
        """Live (non-cancelled) events currently in the heap."""
        return len(self._heap) - self._cancelled_in_heap

    def _note_cancelled(self) -> None:
        """Bookkeeping for an in-heap cancel; compacts past ~50% dead.

        Amortized O(1): a compaction scans the whole heap but removes at
        least half of it, and the threshold must be re-reached by new
        cancels before the next scan.
        """
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self._COMPACT_MIN_SIZE
            and 2 * self._cancelled_in_heap > len(self._heap)
        ):
            self._compact()

    # ------------------------------------------------- tombstone sweep
    #
    # Exactly two places may decrement ``_cancelled_in_heap``:
    # :meth:`_drop_cancelled` (one popped tombstone) and
    # :meth:`_compact` (bulk reset after filtering). run()/peek() both
    # sweep through these helpers, so the counter cannot drift between
    # call sites — ``queue_depth`` stays an invariant, property-tested
    # under interleaved cancel/peek/run/compact sequences.

    def _drop_cancelled(self, event: Event) -> None:
        """Detach one tombstone that was just popped off the heap."""
        event._sim = None
        self._cancelled_in_heap -= 1

    def _pop_cancelled(self) -> None:
        """Sweep cancelled entries off the top of the heap."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                return
            heapq.heappop(heap)
            self._drop_cancelled(event)

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Mutates the heap **in place** (``self._heap[:] = ...``) rather
        than rebinding the attribute: compaction can be triggered from
        an event callback's ``cancel()`` while :meth:`run` is mid-drain
        holding a local alias to the heap list. A rebind would leave
        that drain popping a stale pre-compact list — double-dropping
        tombstones and never seeing newly scheduled events.
        """
        live: List[_Entry] = []
        for entry in self._heap:
            event = entry[2]
            if event is not None and event.cancelled:
                event._sim = None
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled_in_heap = 0

    # --------------------------------------------------- handle lane
    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Scheduling in the past raises ``ValueError``: components must
        never rewind the clock.
        """
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq_next
        self._seq_next = seq + 1
        event = Event(self)
        heapq.heappush(self._heap, (float(time), seq, event, callback))
        return event

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if not delay >= 0:
            raise ValueError(f"negative delay {delay}")
        return self.at(self.now + delay, callback)

    # ----------------------------------------------- anonymous lane
    def at_call(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget ``callback`` at absolute ``time``.

        No :class:`Event` handle is allocated, so the entry cannot be
        cancelled. This is the lane for completion events that are
        never revoked (a granted MMU job's issue-complete, a serial
        unit's service completion, zero-delay continuation hops); it
        skips one object allocation plus the detach bookkeeping per
        event, which is most of the per-event cost in dense
        arrival/completion traffic.
        """
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(self._heap, (float(time), seq, None, callback))

    def after_call(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`after`: no handle, not cancellable."""
        if not delay >= 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, None, callback))

    # ------------------------------------------------------- drain
    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> str:
        """Run events until the queue drains, ``until``, or ``max_events``.

        ``until`` is inclusive: an event scheduled exactly at ``until``
        fires. Cancelled entries at the head are swept before either
        stop is checked, and the ``until`` stop outranks the budget
        stop. The clock advance to ``until`` happens **only** on the
        ``until`` and drained stops: when the run stops because the
        event budget ran out the clock stays at the last executed
        event — there may be live events between it and ``until``, so
        advancing would fabricate simulated time that never elapsed
        (and silently skew any windowed statistic computed from
        ``now``).

        Pop-first: popping the head and pushing it back on the rare
        stop is cheaper than peek-then-pop on every event. Sequence
        numbers are unique, so a pushed-back entry keeps its place.

        Returns the stop reason: :data:`STOP_DRAINED` (queue empty),
        :data:`STOP_UNTIL` (next live event is beyond ``until``) or
        :data:`STOP_MAX_EVENTS` (budget exhausted, **clock not
        advanced**).
        """
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = _NO_BUDGET if max_events is None else max_events
        processed = 0
        stop = STOP_DRAINED
        while heap:
            entry = pop(heap)
            time, _seq, event, fire = entry
            if event is not None:
                if event.cancelled:
                    self._drop_cancelled(event)
                    continue
            if time > horizon:
                heapq.heappush(heap, entry)
                stop = STOP_UNTIL
                break
            if processed >= budget:
                heapq.heappush(heap, entry)
                self._events_processed += processed
                return STOP_MAX_EVENTS  # clock deliberately not advanced
            if event is not None:
                event._sim = None
            self.now = time
            fire()
            processed += 1
        self._events_processed += processed
        if until is not None and self.now < until:
            self.now = float(until)
        return stop

    def every(
        self, interval: float, callback: Callable[[], None]
    ) -> "RecurringEvent":
        """Schedule ``callback`` every ``interval`` cycles until cancelled.

        The first firing is one interval from now. Recurring events are
        the watchdog primitive of the fault-tolerance layer (the SLO
        guard samples backlog on one); they reschedule themselves, so a
        simulation holding a live recurring event never drains — cancel
        it when the observed experiment ends.
        """
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval}")
        return RecurringEvent(self, float(interval), callback)

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or None when drained."""
        self._pop_cancelled()
        return self._heap[0][0] if self._heap else None


class RecurringEvent:
    """A self-rescheduling periodic callback (see :meth:`Simulator.every`).

    ``cancel`` stops future firings; a firing in flight at cancel time
    is skipped via the underlying event's cancellation.
    """

    __slots__ = ("sim", "interval", "callback", "cancelled", "_event")

    def __init__(
        self, sim: Simulator, interval: float, callback: Callable[[], None]
    ):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.cancelled = False
        self._event = sim.after(interval, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.callback()
        # The callback may have cancelled *this* recurring event — at
        # that point self._event is the already-popped event whose
        # cancel() is a no-op, so an unconditional reschedule would
        # push one more live event and keep the heap from draining.
        if self.cancelled:
            return
        self._event = self.sim.after(self.interval, self._fire)

    def cancel(self) -> None:
        self.cancelled = True
        self._event.cancel()
