"""Batch-drain equivalence: the batched loop against the oracle loop.

The batched drain (``loop="batched"``) must be observationally
*identical* to the historical one-event-at-a-time loop
(``loop="reference"``) — same firing order, same ``now`` trajectory,
same stop reasons, same ``queue_depth``, same snapshots, same profiler
callbacks. These tests replay deterministic chaotic workloads (seeded
soups with quantized timestamps for same-time collisions, cancels
issued from inside callbacks, recurring events, mixed
``until``/``max_events`` horizons) under both loops and compare the
full observable record, plus an accelerator-level run under both
kernel backends.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    LOOP_BATCHED,
    LOOP_REFERENCE,
    STOP_DRAINED,
    STOP_MAX_EVENTS,
    STOP_UNTIL,
    Simulator,
)

LOOPS = (LOOP_REFERENCE, LOOP_BATCHED)


class _Soup:
    """One seeded chaotic workload, replayable under any drain loop.

    All randomness flows through one ``random.Random(seed)`` consumed
    only from inside callbacks (plus seeding), so two replays that fire
    callbacks in the same order draw identically — and a replay that
    fires in a *different* order diverges loudly in the trace.
    """

    def __init__(self, sim: Simulator, seed: int, keyed_only: bool = False):
        self.sim = sim
        self.rng = random.Random(seed)
        self.keyed_only = keyed_only
        self.trace = []
        self.handles = []
        self.budget = 140  # total callbacks ever scheduled
        self.label = 0
        self.recurring_fires = 0

    def seed_events(self) -> None:
        for _ in range(12):
            self._schedule()
        if self.rng.random() < 0.7:
            cell = []
            rec = self.sim.every(
                1.75, lambda: self._recur(cell), key="soup-recurring"
            )
            cell.append(rec)

    def _recur(self, cell) -> None:
        self.recurring_fires += 1
        self.trace.append(("recur", self.sim.now, self.recurring_fires))
        if self.recurring_fires >= 5:
            cell[0].cancel()

    def _gap(self) -> float:
        # Quarter-cycle quantization forces same-timestamp collisions.
        return self.rng.randrange(0, 12) / 4.0

    def _schedule(self) -> None:
        if self.budget <= 0:
            return
        self.budget -= 1
        self.label += 1
        label = self.label

        def fire(label=label):
            self._fire(label)

        gap = self._gap()
        if not self.keyed_only and self.rng.random() < 0.5:
            self.sim.after_call(gap, fire)
            self.trace.append(("sched-anon", self.sim.now, label))
        else:
            event = self.sim.after(gap, fire, key=f"k{label}")
            self.handles.append(event)
            self.trace.append(("sched", self.sim.now, label))

    def _fire(self, label: int) -> None:
        self.trace.append(("fire", self.sim.now, label, self.sim.queue_depth))
        roll = self.rng.random()
        if roll < 0.6:
            self._schedule()
        if roll < 0.3:
            self._schedule()
        if self.handles and self.rng.random() < 0.35:
            victim = self.handles.pop(self.rng.randrange(len(self.handles)))
            victim.cancel()
            self.trace.append(("cancel", self.sim.now, self.sim.queue_depth))


def _run_program(loop: str, seed: int, keyed_only: bool = False):
    """Drive one soup through a seeded mix of run() calls; return the
    complete observable record."""
    sim = Simulator()
    soup = _Soup(sim, seed, keyed_only=keyed_only)
    soup.seed_events()
    ctrl = random.Random(seed + 90210)
    record = []
    for _ in range(8):
        choice = ctrl.random()
        if choice < 0.4:
            stop = sim.run(
                until=sim.now + ctrl.randrange(1, 20) / 2.0, loop=loop
            )
        elif choice < 0.7:
            stop = sim.run(max_events=ctrl.randrange(1, 30), loop=loop)
        else:
            stop = sim.run(loop=loop)
        record.append(
            (stop, sim.now, sim.queue_depth, sim.events_processed)
        )
        if keyed_only:
            # Mid-drain snapshots must agree byte for byte.
            record.append(
                json.dumps(sim.to_state(), sort_keys=True)
            )
    sim.run(loop=loop)
    record.append(("final", sim.now, sim.queue_depth, sim.events_processed))
    return soup.trace, record


class TestFuzzedEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_mixed_soup_trace_identical(self, seed):
        ref = _run_program(LOOP_REFERENCE, seed)
        bat = _run_program(LOOP_BATCHED, seed)
        assert ref == bat

    @pytest.mark.parametrize("seed", range(25, 45))
    def test_keyed_soup_with_snapshots_identical(self, seed):
        ref = _run_program(LOOP_REFERENCE, seed, keyed_only=True)
        bat = _run_program(LOOP_BATCHED, seed, keyed_only=True)
        assert ref == bat

    def test_same_timestamp_storm_fires_in_schedule_order(self):
        traces = {}
        for loop in LOOPS:
            sim = Simulator()
            fired = []
            for i in range(300):
                # Only three distinct timestamps: massive collisions.
                sim.at_call(float(i % 3), lambda i=i: fired.append(i))
            stop = sim.run(loop=loop)
            assert stop == STOP_DRAINED
            traces[loop] = fired
        assert traces[LOOP_REFERENCE] == traces[LOOP_BATCHED]
        # Within a timestamp, scheduling order is firing order.
        assert traces[LOOP_BATCHED] == sorted(
            range(300), key=lambda i: (i % 3, i)
        )

    @pytest.mark.parametrize("loop", LOOPS)
    def test_stop_reasons_and_clock_contract(self, loop):
        sim = Simulator()
        sim.at_call(5.0, lambda: None)
        sim.at(9.0, lambda: None)
        assert sim.run(until=2.0, loop=loop) == STOP_UNTIL
        assert sim.now == 2.0
        assert sim.run(max_events=1, loop=loop) == STOP_MAX_EVENTS
        assert sim.now == 5.0  # max_events stop does not advance
        assert sim.run(until=20.0, loop=loop) == STOP_DRAINED
        assert sim.now == 20.0  # drained-under-horizon advances to until

    @pytest.mark.parametrize("loop", LOOPS)
    def test_cancel_of_head_during_budget_run(self, loop):
        sim = Simulator()
        fired = []
        later = sim.after(10.0, lambda: fired.append("later"))
        sim.after(1.0, lambda: (fired.append("first"), later.cancel()))
        assert sim.run(max_events=1, loop=loop) == STOP_DRAINED
        assert fired == ["first"]


class TestProfilerEquivalence:
    def _profiled_run(self, loop):
        from repro.obs.profile import SimProfiler

        sim = Simulator()
        profiler = SimProfiler(clock=lambda: 0.0)
        sim.set_profiler(profiler)
        soup = _Soup(sim, seed=7)
        soup.seed_events()
        sim.run(loop=loop)
        return soup.trace, profiler.events, profiler.max_heap_depth

    def test_profiler_sees_identical_stream(self):
        ref = self._profiled_run(LOOP_REFERENCE)
        bat = self._profiled_run(LOOP_BATCHED)
        assert ref == bat

    def test_set_profiler_from_callback_takes_effect(self):
        """Regression: the run loop used to hoist ``self._profiler``
        once per run, so a profiler attached from inside a callback was
        silently ignored for the rest of the run. Both loops now
        re-read at batch boundaries (at most 64 events late)."""
        from repro.obs.profile import SimProfiler

        counts = {}
        for loop in LOOPS:
            sim = Simulator()
            profiler = SimProfiler(clock=lambda: 0.0)
            for i in range(200):
                sim.at(float(i), lambda: None)
            sim.at(9.5, lambda: sim.set_profiler(profiler))
            sim.run(loop=loop)
            counts[loop] = profiler.events
        # 201 events total, attach fires 11th; the re-read lands at the
        # next 64-event batch boundary under BOTH loops.
        assert counts[LOOP_REFERENCE] == counts[LOOP_BATCHED]
        assert counts[LOOP_BATCHED] >= 201 - 11 - 64
        assert counts[LOOP_BATCHED] > 0

    def test_detach_from_callback_takes_effect(self):
        from repro.obs.profile import SimProfiler

        counts = {}
        for loop in LOOPS:
            sim = Simulator()
            profiler = SimProfiler(clock=lambda: 0.0)
            sim.set_profiler(profiler)
            for i in range(200):
                sim.at(float(i), lambda: None)
            sim.at(9.5, lambda: sim.set_profiler(None))
            sim.run(loop=loop)
            counts[loop] = profiler.events
        assert counts[LOOP_REFERENCE] == counts[LOOP_BATCHED]
        assert counts[LOOP_BATCHED] < 201


class TestQueueDepthInvariant:
    """queue_depth == live heap entries, under arbitrary interleavings
    of schedule / cancel / peek / run / compaction."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_depth_equals_live_entries(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        handles = []
        for step in range(rng.randrange(20, 220)):
            op = rng.random()
            if op < 0.40:
                handles.append(
                    sim.after(rng.randrange(0, 16) / 2.0, lambda: None,
                              key=f"e{step}")
                )
            elif op < 0.55:
                sim.after_call(rng.randrange(0, 16) / 2.0, lambda: None)
            elif op < 0.80 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            elif op < 0.90:
                sim.peek()
            else:
                sim.run(max_events=rng.randrange(1, 6))
            live = sum(
                1 for entry in sim._heap
                if entry[2] is None or not entry[2].cancelled
            )
            assert sim.queue_depth == live
        sim.run()
        assert sim.queue_depth == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.after(3.0, lambda: None)
        sim.after(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.queue_depth == 1
        sim.run()
        assert sim.queue_depth == 0

    def test_compaction_preserves_depth_and_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(200):
            event = sim.after(float(i), lambda i=i: fired.append(i))
            if i % 2:
                event.cancel()  # enough tombstones to trigger compaction
            else:
                keep.append(event)
        assert sim.queue_depth == 100
        sim.run()
        assert fired == list(range(0, 200, 2))


class TestAtCalls:
    """Bulk anonymous scheduling must equal n scalar ``at_call``s."""

    @pytest.mark.parametrize("loop", LOOPS)
    def test_entries_identical_to_scalar_at_calls(self, loop):
        times = [3.0, 3.0, 7.5, 7.5, 7.5, 12.0]
        traces = {}
        for mode in ("bulk", "scalar"):
            sim = Simulator()
            fired = []
            if mode == "bulk":
                assert sim.at_calls(times, lambda: fired.append(sim.now)) == 6
            else:
                for t in times:
                    sim.at_call(t, lambda: fired.append(sim.now))
            sim.at(5.0, lambda: fired.append(("keyed", sim.now)))
            assert sim.run(loop=loop) == STOP_DRAINED
            traces[mode] = (fired, sim.events_processed, sim.now)
        assert traces["bulk"] == traces["scalar"]

    def test_empty_block_is_a_noop(self, sim):
        assert sim.at_calls([], lambda: None) == 0
        assert sim.queue_depth == 0
        assert sim._seq_next == 0

    def test_past_time_rejected_all_or_nothing(self, sim):
        sim.at_call(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(ValueError, match="cannot schedule"):
            sim.at_calls([2.0, 0.5, 3.0], lambda: None)
        # Nothing from the bad block was scheduled, no seqs burned.
        assert sim.queue_depth == 0
        assert sim._seq_next == 1

    def test_counts_toward_queue_depth_and_blocks_snapshot(self, sim):
        from repro.sim.engine import SnapshotError

        sim.at_calls([4.0, 5.0], lambda: None)
        assert sim.queue_depth == 2
        with pytest.raises(SnapshotError):
            sim.to_state()


class TestAcceleratorEquivalence:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_load_point_report_identical(self, backend):
        from repro import kernels
        from repro.eval.runner import build_accelerator, simulate_load_point

        reports = {}
        for loop in LOOPS:
            previous = Simulator.default_loop
            Simulator.default_loop = loop
            try:
                with kernels.use_backend(backend):
                    accelerator = build_accelerator("500us", "hbfp8")
                    reports[loop] = simulate_load_point(
                        accelerator, 0.5, batches=2, seed=11
                    )
            finally:
                Simulator.default_loop = previous
        # repr compares every field including NaN p50s.
        assert repr(reports[LOOP_REFERENCE]) == repr(reports[LOOP_BATCHED])
        assert reports[LOOP_BATCHED].requests_completed > 0
