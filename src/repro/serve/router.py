"""Chip-fleet request router: load-aware placement over N chips.

The fleet layer runs many simulated Equinox chips on one shared
:class:`repro.sim.engine.Simulator`. Each :class:`ChipServer` is a
queueing model of one chip's serving front end, calibrated from the
cycle-accurate single-chip model: its batch size is the chip's
``batch_slots`` and its service time one ``batch_service_cycles`` (the
numbers :class:`repro.core.equinox.EquinoxAccelerator` probes), so a
100-chip fleet scenario stays tractable while every latency is in real
chip cycles.

Placement is least-outstanding-work with power-of-two-choices: two
distinct alive candidates are sampled from the tenant's affinity set
(falling back to the whole alive fleet) and the one with less
outstanding work wins, ties to the lower chip id. The sampler draws
from a dedicated crc32-keyed substream — the same discipline
:meth:`repro.faults.plan.FaultPlan.rng` uses — so the placement
sequence is a pure function of the seed (and lint rule EQX310 forbids
anything else in this package).

Chip failure composes with :class:`repro.faults.plan.FaultPlan` worker
specs: each crashed worker id becomes a chip-kill event at a
plan-seeded cycle. A killed chip cancels its in-service batches and
its queued requests are *drained back through admission* on surviving
chips — re-placed, re-bounded, re-deadlined; their latency clocks keep
running from the original arrival, so failover cost shows up in the
tail percentiles where it belongs.
"""

import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batching import PullBatching
from repro.core.dispatcher import (
    MAX_INFLIGHT_BATCHES,
    FairShareDispatcher,
    TenantShare,
)
from repro.core.requests import Batch, InferenceRequest
from repro.faults.admission import AdmissionControl
from repro.faults.counters import FaultCounters
from repro.faults.plan import FaultPlan
from repro.obs.sketch import QuantileSketch
from repro.sim.engine import Event, Simulator

#: Substream labels (crc32-keyed, matching ``FaultPlan.rng``).
ROUTER_SUBSTREAM = "serve.router"
CHIP_KILL_SUBSTREAM = "serve.chip_kill"

#: Kill times land in this fraction band of the scenario horizon, so a
#: dead chip always has live traffic to fail over (not a cold start or
#: an already-drained tail).
KILL_WINDOW = (0.2, 0.6)


class ChipServer:
    """One chip's serving front end: fair-share dispatcher + fixed
    service-time batch engine with two batches in flight (the chip's
    double-buffered activation banks, ``MAX_INFLIGHT_BATCHES``).

    Formation is demand-driven (:class:`PullBatching`): a batch forms
    exactly when a service slot frees up, so queued requests stay in
    the bounded per-tenant admission queues until the datapath can
    take them.
    """

    def __init__(
        self,
        sim: Simulator,
        chip_id: int,
        shares: Sequence[TenantShare],
        batch_service_cycles: float,
        batch_slots: int,
        admission: Optional[AdmissionControl] = None,
        counters: Optional[FaultCounters] = None,
        slowdown: float = 1.0,
        on_complete: Optional[Callable[["ChipServer", Batch], None]] = None,
    ):
        if batch_service_cycles <= 0:
            raise ValueError("batch service time must be positive")
        if slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {slowdown}")
        self.sim = sim
        self.chip_id = chip_id
        self.batch_service_cycles = batch_service_cycles
        self.slowdown = slowdown
        self.on_complete = on_complete
        self.dispatcher = FairShareDispatcher(
            sim,
            PullBatching(batch_slots),
            self._on_batch,
            shares,
            admission=admission,
            counters=counters,
        )
        # A retry re-admission on an otherwise idle chip must start
        # service immediately — nothing else would pump until the next
        # completion, which on an idle chip never comes.
        self.dispatcher.on_queue_increase = self.pump
        self.alive = True
        self.batches_served = 0
        self.requests_served = 0
        self._inflight: Dict[int, Tuple[Event, Batch]] = {}

    @property
    def outstanding_requests(self) -> int:
        """Live requests this chip owes: queued + retrying + in service.
        The placement load signal."""
        return (
            self.dispatcher.queue_size
            + self.dispatcher.pending_retries
            + sum(batch.real_count for _, batch in self._inflight.values())
        )

    def pump(self) -> None:
        """Start as much queued work as the slots allow."""
        if not self.alive:
            return
        while (
            len(self._inflight) < MAX_INFLIGHT_BATCHES
            and self.dispatcher.queue_size
        ):
            # form_one fires _on_batch, which starts it.
            self.dispatcher.form_one()

    def _on_batch(self, batch: Batch) -> None:
        # Only pump forms a batch, and only into a free service slot.
        batch.started_cycle = self.sim.now
        event = self.sim.after(
            self.batch_service_cycles * self.slowdown,
            lambda b=batch: self._finish(b),
        )
        self._inflight[batch.batch_id] = (event, batch)

    def _finish(self, batch: Batch) -> None:
        self._inflight.pop(batch.batch_id, None)
        batch.complete(self.sim.now)
        self.batches_served += 1
        self.requests_served += batch.real_count
        if self.on_complete is not None:
            self.on_complete(self, batch)
        self.pump()

    def kill(self) -> List[InferenceRequest]:
        """The chip dies now. Every in-service batch is cancelled and
        every live request evacuated (request-id order) for the router
        to re-admit elsewhere; served tallies stay as they were."""
        self.alive = False
        evacuated: List[InferenceRequest] = []
        for event, batch in self._inflight.values():
            event.cancel()
            evacuated.extend(batch.requests)
        self._inflight.clear()
        evacuated.extend(self.dispatcher.drain())
        for request in evacuated:
            # Back through admission: the batch it was in never ran.
            request.batched_cycle = None
        evacuated.sort(key=lambda request: request.request_id)
        return evacuated


class FleetRouter:
    """Routes tenant request streams across a fleet of chip servers.

    Attributes:
        sim: The shared simulator all chips run on.
        chips: The fleet, indexed by chip id.
        sketches: Per-tenant end-to-end latency sketches (completed
            requests only; cycles).
    """

    def __init__(
        self,
        sim: Simulator,
        tenants: Sequence[TenantShare],
        fleet_size: int,
        batch_slots: int,
        batch_service_cycles: float,
        seed: int = 0,
        admission: Optional[AdmissionControl] = None,
        fault_plan: Optional[FaultPlan] = None,
        counters: Optional[FaultCounters] = None,
    ):
        if fleet_size < 1:
            raise ValueError(f"fleet size must be >= 1, got {fleet_size}")
        self.sim = sim
        self.fleet_size = fleet_size
        self.fault_plan = fault_plan
        self.counters = counters if counters is not None else FaultCounters()
        self._tenant_names = [share.name for share in tenants]
        self._rng = np.random.default_rng(
            [seed, zlib.crc32(ROUTER_SUBSTREAM.encode("utf-8"))]
        )
        workers = fault_plan.workers if fault_plan is not None else None
        self.chips = [
            ChipServer(
                sim,
                chip_id,
                tenants,
                batch_service_cycles,
                batch_slots,
                admission=admission,
                counters=self.counters,
                slowdown=(
                    workers.slowdown_for(chip_id) if workers is not None else 1.0
                ),
                on_complete=self._on_batch_complete,
            )
            for chip_id in range(fleet_size)
        ]
        # Service-affinity hints: each tenant prefers a contiguous arc
        # of about half the fleet (at least two chips) starting at a
        # crc32-derived offset — placement locality without hard
        # partitioning (the arcs overlap, and a fully-dead arc falls
        # back to the whole alive fleet).
        affinity_size = min(max(2, (fleet_size + 1) // 2), fleet_size)
        self._affinity: Dict[str, List[int]] = {}
        for share in tenants:
            start = zlib.crc32(share.name.encode("utf-8")) % fleet_size
            self._affinity[share.name] = [
                (start + offset) % fleet_size for offset in range(affinity_size)
            ]
        self._next_request_id = 0
        self.submitted_by_tenant: Dict[str, int] = dict.fromkeys(
            self._tenant_names, 0
        )
        self.completed_by_tenant: Dict[str, int] = dict.fromkeys(
            self._tenant_names, 0
        )
        self.sketches: Dict[str, QuantileSketch] = {
            name: QuantileSketch() for name in self._tenant_names
        }
        self.chips_killed: List[int] = []
        #: Cycle of the most recent batch completion anywhere in the
        #: fleet — the scenario duration measure (``Simulator.run`` may
        #: advance past it popping cancelled-timeout tombstones).
        self.last_completion_cycle = 0.0
        self.failover_redispatched = 0
        self.failover_dropped_by_tenant: Dict[str, int] = dict.fromkeys(
            self._tenant_names, 0
        )
        self.unroutable_by_tenant: Dict[str, int] = dict.fromkeys(
            self._tenant_names, 0
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _alive_candidates(self, tenant: str) -> List[ChipServer]:
        preferred = [
            self.chips[chip_id]
            for chip_id in self._affinity[tenant]
            if self.chips[chip_id].alive
        ]
        if preferred:
            return preferred
        return [chip for chip in self.chips if chip.alive]

    def _place(self, tenant: str) -> Optional[ChipServer]:
        """Power-of-two-choices, least outstanding work, ties to the
        lower chip id. ``None`` when every chip is dead."""
        candidates = self._alive_candidates(tenant)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        first, second = self._rng.choice(
            len(candidates), size=2, replace=False
        )
        pair = (candidates[int(first)], candidates[int(second)])
        return min(
            pair, key=lambda chip: (chip.outstanding_requests, chip.chip_id)
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def submit(self, tenant: str) -> Optional[InferenceRequest]:
        """A tenant request arrives now; place it on a chip. Returns
        ``None`` (counted ``unroutable``) only with the fleet dead."""
        if tenant not in self.submitted_by_tenant:
            raise ValueError(
                f"unknown tenant {tenant!r}; "
                f"registered: {self._tenant_names}"
            )
        chip = self._place(tenant)
        if chip is None:
            self.unroutable_by_tenant[tenant] += 1
            return None
        request = InferenceRequest(
            request_id=self._next_request_id,
            arrival_cycle=self.sim.now,
            tenant=tenant,
        )
        self._next_request_id += 1
        self.submitted_by_tenant[tenant] += 1
        chip.dispatcher.inject(request)
        chip.pump()
        return request

    def _on_batch_complete(self, chip: ChipServer, batch: Batch) -> None:
        self.last_completion_cycle = self.sim.now
        for request in batch.requests:
            assert request.tenant is not None
            self.sketches[request.tenant].observe(request.latency_cycles)
            self.completed_by_tenant[request.tenant] += 1

    # ------------------------------------------------------------------
    # Chip failure
    # ------------------------------------------------------------------

    def schedule_kills(self, horizon_cycles: float) -> None:
        """Arm one kill event per crashed worker id in the fault plan,
        at a plan-seeded cycle inside :data:`KILL_WINDOW`."""
        if self.fault_plan is None:
            return
        for chip_id in self.fault_plan.workers.crashed:
            if not 0 <= chip_id < self.fleet_size:
                continue
            rng = self.fault_plan.rng(CHIP_KILL_SUBSTREAM, chip_id)
            low, high = KILL_WINDOW
            kill_cycle = float(rng.uniform(low, high)) * horizon_cycles
            self.sim.at(kill_cycle, lambda cid=chip_id: self.kill_chip(cid))

    def kill_chip(self, chip_id: int) -> None:
        """Kill a chip now and fail its live requests over through
        admission on the surviving fleet."""
        chip = self.chips[chip_id]
        if not chip.alive:
            return
        evacuated = chip.kill()
        self.chips_killed.append(chip_id)
        self.counters.workers_crashed += 1
        for request in evacuated:
            assert request.tenant is not None
            self.failover_redispatched += 1
            target = self._place(request.tenant)
            if target is None:
                request.rejected = True
                self.counters.rejected_requests += 1
                self.failover_dropped_by_tenant[request.tenant] += 1
                continue
            target.dispatcher.inject(request)
            target.pump()

    # ------------------------------------------------------------------
    # Drain / aggregate
    # ------------------------------------------------------------------

    @property
    def outstanding_requests(self) -> int:
        return sum(chip.outstanding_requests for chip in self.chips)

    @property
    def alive_chips(self) -> int:
        return sum(1 for chip in self.chips if chip.alive)

    @property
    def failover_dropped(self) -> int:
        return sum(self.failover_dropped_by_tenant.values())

    @property
    def unroutable(self) -> int:
        return sum(self.unroutable_by_tenant.values())

    def shed_by_tenant(self) -> Dict[str, int]:
        """Fleet-wide per-tenant shed totals (admission + failover)."""
        totals = dict.fromkeys(self._tenant_names, 0)
        for chip in self.chips:
            for name, count in chip.dispatcher.shed_by_tenant.items():
                totals[name] += count
        return totals

    def timed_out_by_tenant(self) -> Dict[str, int]:
        totals = dict.fromkeys(self._tenant_names, 0)
        for chip in self.chips:
            for name, count in chip.dispatcher.timed_out_by_tenant.items():
                totals[name] += count
        return totals
