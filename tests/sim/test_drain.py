"""The drain loop's contract, pinned as data.

Seeded chaotic event programs — quantized timestamps for same-time
collisions, cancels issued from inside callbacks, recurring events,
mixed ``until``/``max_events`` horizons — record every firing, cancel
and stop. Each program's record is pinned by its sha256, taken when
two independent drain loops (a batched fast path and a one-event-at-a-
time reference) both produced it, so any change to the loop must
reproduce every record exactly. An accelerator-level load point is
pinned the same way under both kernel backends.
"""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.canonical import canonical_json
from repro.sim.engine import (
    STOP_DRAINED,
    STOP_MAX_EVENTS,
    STOP_UNTIL,
    Simulator,
)


class _Soup:
    """One seeded chaotic workload, replayable run after run.

    All randomness flows through one ``random.Random(seed)`` consumed
    only from inside callbacks (plus seeding), so two replays that fire
    callbacks in the same order draw identically — and a replay that
    fires in a *different* order diverges loudly in the trace.
    """

    def __init__(self, sim: Simulator, seed: int, handles_only: bool = False):
        self.sim = sim
        self.rng = random.Random(seed)
        self.handles_only = handles_only
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
            rec = self.sim.every(1.75, lambda: self._recur(cell))
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
        if not self.handles_only and self.rng.random() < 0.5:
            self.sim.after_call(gap, fire)
            self.trace.append(("sched-anon", self.sim.now, label))
        else:
            event = self.sim.after(gap, fire)
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


def _pending(sim: Simulator):
    """The live heap as sorted ``(time, seq)`` pairs plus the sequence
    cursor: exactly what is still due to fire, and in which order."""
    live = sorted(
        (time, seq) for time, seq, event, _ in sim._heap
        if event is None or not event.cancelled
    )
    return live, sim._seq_next


def _run_program(seed: int, handles_only: bool = False):
    """Drive one soup through a seeded mix of run() calls; return the
    complete observable record."""
    sim = Simulator()
    soup = _Soup(sim, seed, handles_only=handles_only)
    soup.seed_events()
    ctrl = random.Random(seed + 90210)
    record = []
    for _ in range(8):
        choice = ctrl.random()
        if choice < 0.4:
            stop = sim.run(until=sim.now + ctrl.randrange(1, 20) / 2.0)
        elif choice < 0.7:
            stop = sim.run(max_events=ctrl.randrange(1, 30))
        else:
            stop = sim.run()
        record.append(
            (stop, sim.now, sim.queue_depth, sim.events_processed)
        )
        if handles_only:
            # Mid-drain, exactly the pinned events are still pending.
            record.append(_pending(sim))
    sim.run()
    record.append(("final", sim.now, sim.queue_depth, sim.events_processed))
    return soup.trace, record


def _digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


class TestFuzzedPrograms:
    #: sha256 of each program's canonical (trace, record); seeds 0-24
    #: mix both lanes, 25-44 use handles only and record the pending
    #: heap after every stop.
    PINS = {
        0: "86dbe409e23be546fca31f1ed575dead955b12c021ce9c5d931bb257fb035a46",
        1: "5549f1fd199055342b3a1648aba77529e13e7008601af72e0f0b2c235097c222",
        2: "3c18113dd8a42b03c2c90fbcbc296ba4c661f2c42927bb3929d991068ad6afbd",
        3: "06abc062dc5dd6d2cf2f748b3cc8451414f1095347040421a7fe3fb97abe8994",
        4: "a0186ee4c227499b5bd66143cf3f6a8531fcbc288111b376c62b2e3790f55a65",
        5: "7bd352c7a55c00951c23f0d8ce14e4793eef78f7c91bc9a2780a7668299a4c11",
        6: "608805120ff5139b94e61ed91d6a93dff09c336dd0112cdf00faef7fe786eb1d",
        7: "01c125fe67106151dc5884df35a0c24b9ccc1c7e2350717a70598f79656d1c9e",
        8: "fdaffa3ac6be8d35b72d05293bfca00f4a164ec3e565e0c2812180d96d7e5dbc",
        9: "7e0e5e07c3fdb3e772d82d003e618d60c444c18af54f9bffa8f33863acc45e58",
        10: "c56c6cd9f534dbda6e97437c582df306891758ae5436edc3504992d51bd1c624",
        11: "e70020b665410693fc34cf5061ed9fa297150aef0d7921f10f6b702b6f7069d9",
        12: "320cc6f6db29487f5ab23ca0d8c639d827b79f4641908c4b8b8e7628863b89dc",
        13: "eb96f603508f9b1fc087544b969bc69438ad4fd8dcebcbe2a0961bdb9ff6d9b8",
        14: "08336f96971a249c6dd14559f15760d457cb267ddaa4111cf85834bed53f74a8",
        15: "c667616ddc7aef105f427bfd181016be2507abd9b91caa454965aa4fae243c35",
        16: "f7f182bca7adedaeea25a76be2bad7649854e1e258cded1a78aa3ed70a8892cf",
        17: "ef8dffc2326af09d7c4a92fc3693f96971b652b0db720b87d0419315fe702084",
        18: "4aceb70f475dd106b7a03a07282b4100be187117dd9f78a7f8157948bb3ad373",
        19: "f8c3f602f733bebafffc390a1703036450e05ecfd916d8d1328f6328ecedf8c1",
        20: "2b79f3cbe7a8e3dd2259dafd8f925e021048ffaaf6a375ed37cece68c461d72a",
        21: "622a1c51a700d8d500c53a6c0573c61cf4393701aac11b292c88c01b5a7967d4",
        22: "5b018597dc976e42bb5a09693dd3045b7eac2a10435497c89da25e346b253cab",
        23: "c252216e982427c645b6958256e28e931dbfdf8fe0098e179e3c23dcd7c6d918",
        24: "61b5d26ff048530d302fdbc6dd8b4e584683fe8ea321ddb2644cc0e0f33a2679",
        25: "7752158d3365a688700d8c5da41df15ffcc2f705828920904a45eeba010f39b6",
        26: "4ee75da298018dd306c16cff08018d53ae7aa4d6dcd17aaa9d44e1dd8b2823b3",
        27: "12e967b91510e15a1a2095fec68d986d4bbc194fa6df861f7f148f388cf45cc2",
        28: "ef030c9adddce8ace015524f27be7e805f68a3775b93115e8b45ac3ff5295ddf",
        29: "3b46647ca5bc512b900860bb5646e3bfd5fc299e01d799a002a8401871511e69",
        30: "a320548c65e2f4aa5784569c9392d04f05ce3b0c59d23b5536b16560740c17df",
        31: "69bd27391a8b8cf13d2da0bc0a25201d396787aad466ce78a87fc12bc222f2cc",
        32: "2168e32af3ede87398b30ed467d249941d87e7c56c337c1634b4c700b44b3da3",
        33: "9f370adae29b0f8fc8d67c2c5559dd80dbaaf2937148351f4cb62ca308d561b5",
        34: "7e619d78ac90d42e27b7f961177bf3c1b986ba357db667629762a7aff4df399e",
        35: "33e2c1c3f6de9f1255b208c98e44805e058c2354dbc353457c60241a59938059",
        36: "3f37fcc666fa9cce8bc84b43913e3c88b0adceb5a1290264d5028e5a78a88e82",
        37: "f8d4f4374d3695599724b83362fff7c25d19cec69db5d0067779ceb73d1b6f18",
        38: "248c68e1115f6536006e1070a330aab5a98f24e7d07220e902a76207f2c58454",
        39: "e4bdf19cf351198efaa51fdecbfbeb2a4131bb0f42d9b31f62218a918e6bd74c",
        40: "74cd261c332417dde9fc694bddf474259a65e3ddbed4c50cd7703cf1039188ff",
        41: "d5ee17329fefb779620b0b2283e77a16075d24ffc73ba007bb7714299fe21d94",
        42: "681de7072a53f8b25c1552730761e8feb4cda893c72df5b0891263f5fe9b5579",
        43: "735fd4d3c43028b4f2713e9d1939c6e9c627930d40e6883c22828981a2ffa0c9",
        44: "25538af987ef073b2e7ed7d7a4a1deaf6244f29535257fcfdb59ae13b0ea97bd",
    }

    @pytest.mark.parametrize("seed", range(25))
    def test_mixed_soup_matches_its_pin(self, seed):
        assert _digest(_run_program(seed)) == self.PINS[seed]

    @pytest.mark.parametrize("seed", range(25, 45))
    def test_handle_soup_matches_its_pin(self, seed):
        program = _run_program(seed, handles_only=True)
        assert _digest(program) == self.PINS[seed]

    def test_programs_stop_every_way(self):
        """The pinned corpus exercises every stop reason, a cancel from
        inside a callback and same-time firings."""
        stops, cancels, collisions = set(), 0, 0
        for seed in range(45):
            trace, record = _run_program(seed, handles_only=seed >= 25)
            stops.update(row[0] for row in record if isinstance(row[0], str))
            cancels += sum(1 for row in trace if row[0] == "cancel")
            fires = [row[1] for row in trace if row[0] == "fire"]
            collisions += len(fires) - len(set(fires))
        assert {STOP_DRAINED, STOP_UNTIL, STOP_MAX_EVENTS} <= stops
        assert cancels > 0 and collisions > 0

    def test_same_timestamp_storm_fires_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(300):
            # Only three distinct timestamps: massive collisions.
            sim.at_call(float(i % 3), lambda i=i: fired.append(i))
        assert sim.run() == STOP_DRAINED
        # Within a timestamp, scheduling order is firing order.
        assert fired == sorted(range(300), key=lambda i: (i % 3, i))

    def test_stop_reasons_and_clock_contract(self):
        sim = Simulator()
        sim.at_call(5.0, lambda: None)
        sim.at(9.0, lambda: None)
        assert sim.run(until=2.0) == STOP_UNTIL
        assert sim.now == 2.0
        assert sim.run(max_events=1) == STOP_MAX_EVENTS
        assert sim.now == 5.0  # max_events stop does not advance
        assert sim.run(until=20.0) == STOP_DRAINED
        assert sim.now == 20.0  # drained-under-horizon advances to until

    def test_until_stop_outranks_the_budget_stop(self):
        sim = Simulator()
        sim.at_call(1.0, lambda: None)
        sim.at_call(8.0, lambda: None)
        assert sim.run(until=4.0, max_events=1) == STOP_UNTIL
        assert sim.now == 4.0
        assert sim.queue_depth == 1

    def test_cancel_of_head_during_budget_run(self):
        sim = Simulator()
        fired = []
        later = sim.after(10.0, lambda: fired.append("later"))
        sim.after(1.0, lambda: (fired.append("first"), later.cancel()))
        assert sim.run(max_events=1) == STOP_DRAINED
        assert fired == ["first"]


def _fire_trace(seed: int, drive):
    """The soup's trace and event count when ``drive(sim)`` runs it.

    Every event is scheduled from inside a callback (or at seeding), so
    how the drain is sliced into ``run()`` calls must not show in it.
    """
    sim = Simulator()
    soup = _Soup(sim, seed, handles_only=seed >= 25)
    soup.seed_events()
    drive(sim)
    assert sim.queue_depth == 0
    return soup.trace, sim.events_processed


#: Both lanes (seeds below 25) and the handle-only programs.
_SLICED_SEEDS = (0, 7, 13, 25, 31, 44)


class TestSlicedDrain:
    """A drain cut into budget or horizon slices fires exactly what one
    uninterrupted ``run()`` fires: the head entry pushed back at a stop
    keeps its place, same-time entries included."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_budget_slices_replay_one_run(self, chunk):
        def sliced(sim):
            while True:
                before = sim.events_processed
                stop = sim.run(max_events=chunk)
                if stop == STOP_DRAINED:
                    assert sim.events_processed - before <= chunk
                    return
                assert stop == STOP_MAX_EVENTS
                assert sim.events_processed - before == chunk

        for seed in _SLICED_SEEDS:
            whole = _fire_trace(seed, lambda sim: sim.run())
            assert _fire_trace(seed, sliced) == whole

    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0, 1.75, 6.0])
    def test_horizon_slices_replay_one_run(self, step):
        def sliced(sim):
            # Every timestamp is a quarter-cycle multiple, so the
            # horizons are exact.
            slice_index = 1
            while sim.run(until=slice_index * step) == STOP_UNTIL:
                assert sim.now == slice_index * step
                assert sim.peek() > sim.now
                slice_index += 1
            assert sim.now == slice_index * step

        for seed in _SLICED_SEEDS:
            whole = _fire_trace(seed, lambda sim: sim.run())
            assert _fire_trace(seed, sliced) == whole


class TestTombstoneSweep:
    """Cancelled entries at the head are swept before either stop is
    checked."""

    def test_tombstone_beyond_the_horizon_is_swept(self):
        sim = Simulator()
        sim.at(10.0, lambda: None).cancel()
        assert sim.run(until=5.0) == STOP_DRAINED
        assert sim._heap == [] and sim._cancelled_in_heap == 0
        assert sim.now == 5.0

    def test_tombstone_is_swept_before_the_budget_stop(self):
        sim = Simulator()
        sim.at(1.0, lambda: None).cancel()
        sim.at(2.0, lambda: None)
        assert sim.run(max_events=0) == STOP_MAX_EVENTS
        assert len(sim._heap) == 1 and sim._cancelled_in_heap == 0
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_zero_budget_on_an_empty_queue_drains(self):
        sim = Simulator()
        assert sim.run(until=3.0, max_events=0) == STOP_DRAINED
        assert sim.now == 3.0


class TestPushedBackHead:
    """The entry pushed back at a stop is still live: its handle can be
    cancelled before the next run."""

    @pytest.mark.parametrize(
        "stop_kwargs, reason",
        [(dict(until=2.0), STOP_UNTIL), (dict(max_events=0), STOP_MAX_EVENTS)],
        ids=["until", "max_events"],
    )
    def test_cancel_between_runs_takes_effect(self, stop_kwargs, reason):
        sim = Simulator()
        fired = []
        head = sim.at(5.0, lambda: fired.append("head"))
        sim.at(6.0, lambda: fired.append("next"))
        assert sim.run(**stop_kwargs) == reason
        head.cancel()
        assert sim.queue_depth == 1
        assert sim.run() == STOP_DRAINED
        assert fired == ["next"]
        assert sim._heap == [] and sim._cancelled_in_heap == 0


class TestCompactionMidDrain:
    """A callback's cancels can compact the heap while ``run()`` holds
    an alias to it; the drain must then see the compacted heap and any
    entry scheduled after the compaction."""

    @pytest.mark.parametrize("lane", ["at", "at_call"])
    def test_drain_sees_the_compacted_heap(self, lane):
        sim = Simulator()
        fired = []
        victims = [
            sim.at(10.0 + i, lambda i=i: fired.append(i)) for i in range(100)
        ]

        def purge():
            for victim in victims[:80]:
                victim.cancel()  # crosses the half-dead line mid-drain
            getattr(sim, lane)(2.0, lambda: fired.append("late"))

        sim.at(1.0, purge)
        assert sim.run() == STOP_DRAINED
        assert fired == ["late"] + list(range(80, 100))
        assert sim.events_processed == 22
        assert sim._heap == [] and sim._cancelled_in_heap == 0


class TestAnonymousLane:
    def test_counts_toward_queue_depth_and_peek(self):
        sim = Simulator()
        sim.at_call(3.0, lambda: None)
        sim.after_call(1.0, lambda: None)
        assert sim.queue_depth == 2
        assert sim.peek() == 1.0
        assert sim.run() == STOP_DRAINED
        assert sim.events_processed == 2 and sim.queue_depth == 0

    def test_lanes_share_one_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            schedule = sim.at if i % 2 else sim.at_call
            schedule(4, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(6))
        assert type(sim.now) is float

    @pytest.mark.parametrize("lane", ["at", "at_call"])
    def test_past_time_rejected_without_side_effects(self, lane):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(ValueError, match="cannot schedule"):
            getattr(sim, lane)(5.0, lambda: None)
        assert sim._heap == [] and sim._seq_next == 0

    @pytest.mark.parametrize("lane", ["after", "after_call"])
    def test_negative_delay_rejected_without_side_effects(self, lane):
        sim = Simulator()
        with pytest.raises(ValueError, match="negative delay"):
            getattr(sim, lane)(-0.5, lambda: None)
        assert sim._heap == [] and sim._seq_next == 0

    @pytest.mark.parametrize("lane", ["at", "after", "at_call", "after_call", "every"])
    def test_nan_rejected_without_side_effects(self, lane):
        """NaN compares false both ways, so a ``time < now`` check let it
        in, and the event then fired with ``sim.now == nan``."""
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            getattr(sim, lane)(math.nan, lambda: None)
        assert sim._heap == [] and sim._seq_next == 0


class TestQueueDepthInvariant:
    """queue_depth == live heap entries, under arbitrary interleavings
    of schedule / cancel / peek / run / compaction."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_depth_equals_live_entries(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        handles = []
        for _ in range(rng.randrange(20, 220)):
            op = rng.random()
            if op < 0.40:
                handles.append(
                    sim.after(rng.randrange(0, 16) / 2.0, lambda: None)
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


class TestAcceleratorPinned:
    """One co-located load point's full report, with its event count."""

    PIN = "38b6de8743d021ab6231f2bfe59afbbdf13b5f7baa8e497ac93d6c9fcee85d1e"

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_load_point_report_matches_its_pin(self, backend):
        from repro import kernels
        from repro.eval.runner import build_accelerator, simulate_load_point

        with kernels.use_backend(backend):
            accelerator = build_accelerator("500us", "hbfp8")
            report = simulate_load_point(
                accelerator, 0.5, batches=2, seed=11
            )
        assert report.requests_completed > 0
        assert _digest(dataclasses.asdict(report)) == self.PIN
