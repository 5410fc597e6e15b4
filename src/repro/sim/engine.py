"""Event queue and simulator kernel.

Time is measured in *cycles* of the accelerator clock, stored as floats
so that sub-cycle quantities (e.g. DRAM latencies converted from
nanoseconds) do not accumulate rounding error. Events at the same
timestamp execute in scheduling order, which keeps runs deterministic.

Hot-path layout: the heap holds ``(time, seq, event, callback)`` tuples,
not :class:`Event` objects — tuple keys compare in C during heap sifts,
where an object heap pays a Python ``__lt__`` call per comparison. Two
scheduling lanes share that heap:

* the **keyed lane** (:meth:`Simulator.at` / :meth:`Simulator.after`)
  allocates an :class:`Event` handle that supports cancellation and
  snapshotting, exactly as before;
* the **anonymous lane** (:meth:`Simulator.at_call` /
  :meth:`Simulator.after_call`) pushes a bare ``(time, seq, None,
  callback)`` entry — no handle, no cancellation, no detach
  bookkeeping. Fire-and-forget traffic (MMU issue completions, serial
  resource completions, zero-delay hops) dominates dense workloads, and
  skipping the allocation is most of the drain fast path's win.

Two drain loops execute the same contract over that heap:
``loop="batched"`` (the default) pops events in instrumentation-free
batches, and ``loop="reference"`` keeps the historical one-event-at-a-
time loop as the bit-exactness oracle the equivalence suite replays
against (see ``tests/sim/test_batch_drain.py``).
"""

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Heap entry: (time, seq, Event-or-None, callback). ``seq`` is unique,
#: so heap comparisons never reach the third element.
_Entry = Tuple[float, int, Optional["Event"], Callable[[], None]]

#: Events drained between re-reads of loop-varying state
#: (``self._profiler``). A profiler attached or detached from inside a
#: callback takes effect at the next batch boundary — at most one batch
#: late — under *both* loops, so the two stay trace-equivalent.
_BATCH = 64

#: Stand-in budget when ``max_events`` is None (larger than any heap).
_NO_BUDGET = 2 ** 62


class SnapshotError(RuntimeError):
    """Raised when live state cannot be captured (or restored) faithfully.

    Defined here — the bottom of the import graph — and re-exported as
    ``repro.state.SnapshotError``, which is the name everything above
    the simulator uses. It is a *refusal*, not an internal failure: the
    caller asked for a snapshot at a point where one would lie (e.g. an
    unkeyed in-flight event whose closure cannot be serialized).
    Snapshot at a quiescence point instead.
    """


#: Values :meth:`Simulator.run` returns to say why it stopped.
STOP_DRAINED = "drained"
STOP_UNTIL = "until"
STOP_MAX_EVENTS = "max_events"

#: Drain-loop implementations :meth:`Simulator.run` accepts.
LOOP_BATCHED = "batched"
LOOP_REFERENCE = "reference"
_LOOPS = (LOOP_BATCHED, LOOP_REFERENCE)


class Event:
    """A scheduled callback handle (the keyed lane).

    Events compare by (time, sequence number) so that simultaneous
    events fire in the order they were scheduled. Cancelled events are
    skipped when popped; the simulator additionally compacts the heap
    when cancelled entries outnumber live ones, so cancel-heavy
    workloads (watchdogs, speculative timeouts) keep O(live) memory
    instead of leaking every tombstone until drain.

    ``key`` names the *callback*, not the event: a keyed event can be
    serialized by :meth:`Simulator.to_state` and re-bound to the same
    callback on restore. Unkeyed events are fine to schedule but make
    the simulator refuse to snapshot while they are live.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "key", "_sim",
                 "_recurring")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        key: Optional[str] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.key = key
        self._sim: Optional["Simulator"] = None  # set while in the heap
        self._recurring: Optional["RecurringEvent"] = None

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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


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

    #: Drain loop :meth:`run` uses when no ``loop`` argument is given.
    #: Instances may override (the equivalence suite pins one
    #: explicitly per run).
    default_loop = LOOP_BATCHED

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_Entry] = []
        # An explicit counter (not itertools.count) so a snapshot can
        # record and a restore can replay the exact sequence cursor —
        # the (time, seq) order of future events is part of the
        # bit-exact resume contract.
        self._seq_next = 0
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._profiler: Optional[Any] = None

    def _next_seq(self) -> int:
        seq = self._seq_next
        self._seq_next += 1
        return seq

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
        an event callback's ``cancel()`` while a drain loop is mid-batch
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

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach a hot-path profiler (``None`` detaches).

        The profiler (duck-typed; see
        :class:`repro.obs.profile.SimProfiler`) receives
        ``before_event(event, heap_depth)`` / ``after_event(event)``
        around every callback. The kernel itself never reads the wall
        clock — keeping ``repro.sim`` deterministic — so any wall
        timing lives entirely in the hook object.

        Attaching (or detaching) from *inside* an event callback takes
        effect at the next drain-batch boundary, at most :data:`_BATCH`
        events later — the loop re-reads the hook per batch rather than
        hoisting it once per run, which used to ignore mid-run
        ``set_profiler`` calls entirely.
        """
        self._profiler = profiler

    # --------------------------------------------------- keyed lane
    def at(
        self,
        time: float,
        callback: Callable[[], None],
        key: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Scheduling in the past raises ``ValueError``: components must
        never rewind the clock. ``key`` makes the event snapshotable
        (see :meth:`to_state`).
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        time = float(time)
        seq = self._seq_next
        self._seq_next = seq + 1
        event = Event(time, seq, callback, key)
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event, callback))
        return event

    def after(
        self,
        delay: float,
        callback: Callable[[], None],
        key: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.at(self.now + delay, callback, key)

    # ----------------------------------------------- anonymous lane
    def at_call(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget ``callback`` at absolute ``time``.

        No :class:`Event` handle is allocated, so the entry cannot be
        cancelled and — like any unkeyed live event — makes
        :meth:`to_state` refuse while pending. This is the lane for
        completion events that are never revoked (a granted MMU job's
        issue-complete, a serial unit's service completion, zero-delay
        continuation hops); it skips one object allocation plus the
        detach bookkeeping per event, which is most of the per-event
        cost in dense arrival/completion traffic.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(self._heap, (float(time), seq, None, callback))

    def after_call(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`after`: no handle, not cancellable."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, None, callback))

    def at_calls(
        self, times: Iterable[float], callback: Callable[[], None]
    ) -> int:
        """Bulk :meth:`at_call`: one ``callback`` at each of ``times``.

        Block-admission hot paths (a load generator scheduling a whole
        ``next_gaps`` block of arrivals at once) pay one bound-method
        dispatch per *block* instead of per event; the entries are
        identical to ``n`` scalar ``at_call`` calls, in argument order.
        Each time is validated against the no-past-scheduling contract
        before anything is pushed, so a bad block is all-or-nothing.
        Returns the number of entries scheduled.
        """
        entries = [float(time) for time in times]
        now = self.now
        for time in entries:
            if time < now:
                raise ValueError(
                    f"cannot schedule at {time} < now {now}"
                )
        seq = self._seq_next
        self._seq_next = seq + len(entries)
        heap = self._heap
        push = heapq.heappush
        for time in entries:
            push(heap, (time, seq, None, callback))
            seq += 1
        return len(entries)

    # ------------------------------------------------------- drain
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        loop: Optional[str] = None,
    ) -> str:
        """Run events until the queue drains, ``until``, or ``max_events``.

        ``until`` is inclusive: an event scheduled exactly at ``until``
        fires. The clock advance to ``until`` happens **only** on the
        ``until`` and drained stops: when the run stops because the
        event budget ran out the clock stays at the last executed
        event — there may be live events between it and ``until``, so
        advancing would fabricate simulated time that never elapsed
        (and silently skew any windowed statistic computed from
        ``now``).

        ``loop`` picks the drain implementation: ``"batched"`` (the
        default via :attr:`default_loop`) drains batch-at-a-time with
        per-batch instrumentation checks; ``"reference"`` is the
        historical scalar loop, kept as the oracle the equivalence
        suite replays fuzzed event soups against. Both produce
        identical firing order, stop reasons, clocks, profiler
        callbacks and snapshots.

        Returns the stop reason: :data:`STOP_DRAINED` (queue empty),
        :data:`STOP_UNTIL` (next live event is beyond ``until``) or
        :data:`STOP_MAX_EVENTS` (budget exhausted, **clock not
        advanced**).
        """
        if loop is None:
            loop = self.default_loop
        if loop == LOOP_BATCHED:
            return self._run_batched(until, max_events)
        if loop == LOOP_REFERENCE:
            return self._run_reference(until, max_events)
        raise ValueError(f"unknown drain loop {loop!r}; expected {_LOOPS}")

    def _run_reference(
        self, until: Optional[float], max_events: Optional[int]
    ) -> str:
        """The historical one-event-at-a-time loop (the oracle)."""
        processed = 0
        reread_at = 0
        profiler = self._profiler
        stop = STOP_DRAINED
        heap = self._heap
        while heap:
            if processed >= reread_at:
                # Same per-batch re-read contract as the batched loop.
                profiler = self._profiler
                reread_at = processed + _BATCH
            entry = heap[0]
            event = entry[2]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._drop_cancelled(event)
                continue
            if until is not None and entry[0] > until:
                stop = STOP_UNTIL
                break
            if max_events is not None and processed >= max_events:
                self._events_processed += processed
                return STOP_MAX_EVENTS
            heapq.heappop(heap)
            if event is not None:
                event._sim = None
            self.now = entry[0]
            if profiler is None:
                entry[3]()
            else:
                if event is None:
                    event = Event(entry[0], entry[1], entry[3])
                profiler.before_event(event, len(heap))
                entry[3]()
                profiler.after_event(event)
            processed += 1
        self._events_processed += processed
        if until is not None and self.now < until:
            self.now = float(until)
        return stop

    def _run_batched(
        self, until: Optional[float], max_events: Optional[int]
    ) -> str:
        """Batch-at-a-time drain: the production fast path."""
        budget = _NO_BUDGET if max_events is None else max_events
        processed = 0
        stop: Optional[str] = None
        while stop is None:
            profiler = self._profiler  # re-read per batch
            if profiler is None:
                stop, processed = self._drain_plain(until, budget, processed)
            else:
                stop, processed = self._drain_profiled(
                    profiler, until, budget, processed
                )
        self._events_processed += processed
        if stop == STOP_MAX_EVENTS:
            return stop  # clock deliberately not advanced
        if until is not None and self.now < until:
            self.now = float(until)
        return stop

    def _drain_plain(
        self, until: Optional[float], budget: int, processed: int
    ) -> Tuple[Optional[str], int]:
        """Drain up to one batch with no per-event instrumentation.

        Returns ``(stop_reason, processed)``; a ``None`` stop reason
        means the batch filled and the caller should re-read loop state
        and continue. Pop-first: popping the head and pushing it back
        on the rare ``until`` boundary is cheaper than peek-then-pop on
        every event.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = processed + _BATCH
        if budget < limit:
            limit = budget
        if until is None:
            while heap and processed < limit:
                time, _seq, event, fire = pop(heap)
                if event is not None:
                    if event.cancelled:
                        self._drop_cancelled(event)
                        continue
                    event._sim = None
                self.now = time
                fire()
                processed += 1
        else:
            while heap and processed < limit:
                entry = pop(heap)
                time, _seq, event, fire = entry
                if event is not None:
                    if event.cancelled:
                        self._drop_cancelled(event)
                        continue
                if time > until:
                    heapq.heappush(heap, entry)
                    return STOP_UNTIL, processed
                if event is not None:
                    event._sim = None
                self.now = time
                fire()
                processed += 1
        if not heap:
            return STOP_DRAINED, processed
        if processed >= budget:
            # Budget exhausted with entries left: sweep tombstones, then
            # classify exactly as the reference loop would — until-stop
            # outranks the budget stop when the next live event is
            # already beyond the horizon.
            self._pop_cancelled()
            if not heap:
                return STOP_DRAINED, processed
            if until is not None and heap[0][0] > until:
                return STOP_UNTIL, processed
            return STOP_MAX_EVENTS, processed
        return None, processed  # batch boundary

    def _drain_profiled(
        self,
        profiler: Any,
        until: Optional[float],
        budget: int,
        processed: int,
    ) -> Tuple[Optional[str], int]:
        """One instrumented batch: profiler hooks around every event.

        Anonymous-lane entries have no handle, so the hooks receive a
        synthesized detached :class:`Event` carrying the same
        ``(time, seq, callback)`` — component attribution and
        heap-depth accounting are identical either way.
        """
        heap = self._heap
        limit = processed + _BATCH
        if budget < limit:
            limit = budget
        while heap:
            entry = heap[0]
            event = entry[2]
            if event is not None and event.cancelled:
                heapq.heappop(heap)
                self._drop_cancelled(event)
                continue
            if until is not None and entry[0] > until:
                return STOP_UNTIL, processed
            if processed >= limit:
                if processed >= budget:
                    return STOP_MAX_EVENTS, processed
                return None, processed  # batch boundary
            heapq.heappop(heap)
            if event is None:
                event = Event(entry[0], entry[1], entry[3])
            else:
                event._sim = None
            self.now = entry[0]
            profiler.before_event(event, len(heap))
            entry[3]()
            profiler.after_event(event)
            processed += 1
        return STOP_DRAINED, processed

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        key: Optional[str] = None,
    ) -> "RecurringEvent":
        """Schedule ``callback`` every ``interval`` cycles until cancelled.

        The first firing is one interval from now. Recurring events are
        the watchdog primitive of the fault-tolerance layer (the SLO
        guard samples backlog on one); they reschedule themselves, so a
        simulation holding a live recurring event never drains — cancel
        it when the observed experiment ends.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        return RecurringEvent(self, float(interval), callback, key)

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or None when drained."""
        self._pop_cancelled()
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------- snapshot
    def to_state(self) -> Dict[str, Any]:
        """The simulator as canonical-JSON-able state (see
        ``repro.state``).

        Live events serialize as ``(key, time, seq)`` triples; the
        callback itself is re-bound by :meth:`from_state` through the
        caller's key registry. Any live *unkeyed* event makes this
        raise :class:`SnapshotError` — a closure cannot be serialized,
        and pretending otherwise would break the bit-exact resume
        contract silently. Anonymous-lane entries are unkeyed by
        construction, so in-flight fire-and-forget work refuses the
        same way it always has; snapshot at a quiescence point.

        Tombstones (cancelled events still sitting in the heap) are
        deliberately **dropped**: cancelled events never fire and never
        influence live-event ``(time, seq)`` ordering, so the restored
        heap is observationally identical with or without them —
        ``queue_depth`` counts live events only, and the property tests
        assert bit-exact continuation across snapshots taken with a
        tombstone-laden heap.
        """
        events: List[Dict[str, Any]] = []
        recurring: List[Dict[str, Any]] = []
        for time, seq, event, _callback in sorted(self._heap):
            if event is None:
                raise SnapshotError(
                    f"live anonymous event at t={time} cannot be "
                    "snapshotted; anonymous-lane entries (at_call/"
                    "after_call) are fire-and-forget — snapshot at a "
                    "quiescence point"
                )
            if event.cancelled:
                continue
            if event._recurring is not None:
                rec = event._recurring
                if rec.key is None:
                    raise SnapshotError(
                        f"live unkeyed recurring event (interval "
                        f"{rec.interval}) cannot be snapshotted; pass "
                        "key= to Simulator.every"
                    )
                recurring.append({
                    "key": rec.key,
                    "interval": rec.interval,
                    "time": time,
                    "seq": seq,
                })
            elif event.key is None:
                raise SnapshotError(
                    f"live unkeyed event at t={time} cannot be "
                    "snapshotted; pass key= to Simulator.at/after or "
                    "snapshot at a quiescence point"
                )
            else:
                events.append({
                    "key": event.key,
                    "time": time,
                    "seq": seq,
                })
        return {
            "now": self.now,
            "seq_next": self._seq_next,
            "events_processed": self._events_processed,
            "events": events,
            "recurring": recurring,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, Any],
        callbacks: Dict[str, Callable[[], None]],
    ) -> "Simulator":
        """Rebuild a simulator from :meth:`to_state` output.

        ``callbacks`` maps every event key in the snapshot back to a
        callable; a missing key raises :class:`SnapshotError`. The
        restored simulator is bit-exact: same clock, same
        ``(time, seq)`` event order, same sequence cursor for events
        scheduled after the restore.
        """
        sim = cls()
        sim.now = float(state["now"])
        sim._events_processed = int(state["events_processed"])
        for entry in state["events"]:
            key = entry["key"]
            if key not in callbacks:
                raise SnapshotError(f"no callback registered for key {key!r}")
            event = Event(
                float(entry["time"]), int(entry["seq"]), callbacks[key], key
            )
            event._sim = sim
            heapq.heappush(
                sim._heap, (event.time, event.seq, event, event.callback)
            )
        for entry in state["recurring"]:
            key = entry["key"]
            if key not in callbacks:
                raise SnapshotError(f"no callback registered for key {key!r}")
            RecurringEvent._restore(
                sim, float(entry["interval"]), callbacks[key], key,
                float(entry["time"]), int(entry["seq"]),
            )
        sim._seq_next = int(state["seq_next"])
        return sim


class RecurringEvent:
    """A self-rescheduling periodic callback (see :meth:`Simulator.every`).

    ``cancel`` stops future firings; a firing in flight at cancel time
    is skipped via the underlying event's cancellation.
    """

    __slots__ = ("sim", "interval", "callback", "cancelled", "key", "_event")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        key: Optional[str] = None,
    ):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.cancelled = False
        self.key = key
        self._event = sim.after(interval, self._fire)
        self._event._recurring = self

    @classmethod
    def _restore(
        cls,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        key: str,
        time: float,
        seq: int,
    ) -> "RecurringEvent":
        """Rebuild from snapshot state: the pending firing keeps its
        original ``(time, seq)`` slot instead of being rescheduled."""
        rec = cls.__new__(cls)
        rec.sim = sim
        rec.interval = interval
        rec.callback = callback
        rec.cancelled = False
        rec.key = key
        event = Event(time, seq, rec._fire)
        event._sim = sim
        event._recurring = rec
        heapq.heappush(sim._heap, (time, seq, event, rec._fire))
        rec._event = event
        return rec

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
        self._event._recurring = self

    def cancel(self) -> None:
        self.cancelled = True
        self._event.cancel()
