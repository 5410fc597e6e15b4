"""The tenant-mix scenario matrix behind ``python -m repro serve``.

One scenario is one fleet size: the same tenant mix (arrival rates
scaled per chip) is driven through a :class:`repro.serve.router.
FleetRouter` under the scenario's chip-kill fault plan, and the run is
summarized per SLO class — sustained RPS and p50/p99/p999 against each
class's objective. Every scenario executes **twice** from its seed and
the two summaries are compared as canonical JSON, so the emitted
``repro.serve/fleet-report/v1`` artifact doubles as a determinism
self-check (the same discipline as :mod:`repro.faults.chaos`).

Scenario specs are pure data (tenant dicts, calibration numbers, a
:meth:`repro.faults.plan.FaultPlan.to_dict` plan), so the matrix fans
out unchanged across :class:`repro.exec.scheduler.JobRunner` workers as
``serve.fleet_scenario`` jobs — byte-identical serial or parallel.
"""

import json
import zlib
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.report import jsonable
from repro.obs.sketch import QuantileSketch
from repro.serve.classes import TenantSpec, service_class
from repro.serve.report import SCHEMA_ID, FleetReport, validate_fleet_report

#: Design point every scenario calibrates from (same as the chaos
#: matrix): one probe accelerator turns class multiples into cycles.
LATENCY_CLASS = "500us"

#: Default fleet-size sweep for the scenario matrix.
DEFAULT_FLEET_SIZES = (1, 2, 4, 8)

#: Requests driven per chip per scenario — the offered-load *duration*
#: knob; rates come from the tenant mix.
DEFAULT_REQUESTS_PER_CHIP = 320

#: Arrival-process substream label (crc32-keyed per tenant index).
ARRIVALS_SUBSTREAM = "serve.arrivals"

#: Every 8th chip starting at 1 dies mid-run (``KILL_WINDOW``), so any
#: fleet of 2+ chips exercises failover while fleet 1 stays clean.
KILL_STRIDE = 8

#: The default three-tenant mix, cycled (with ``-N`` suffixes) when
#: more tenants are requested. ``bulk`` alone offers a full chip's
#: capacity — the standing flash crowd the fair-share weights must
#: contain.
DEFAULT_TENANT_CYCLE = (
    ("interactive", "latency-critical", 0.25),
    ("bulk", "best-effort", 1.0),
    ("trainer", "batch-training", 0.35),
)


def default_tenants(count: int = 3) -> List[TenantSpec]:
    """The standard tenant mix, cycled out to ``count`` tenants."""
    if count < 1:
        raise ValueError(f"need at least one tenant, got {count}")
    tenants: List[TenantSpec] = []
    for index in range(count):
        name, cls, fraction = DEFAULT_TENANT_CYCLE[
            index % len(DEFAULT_TENANT_CYCLE)
        ]
        if index >= len(DEFAULT_TENANT_CYCLE):
            name = f"{name}-{index // len(DEFAULT_TENANT_CYCLE) + 1}"
        tenants.append(TenantSpec(name, cls, fraction))
    return tenants


def _simulate(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One seeded fleet run from a pure-data spec → one curve point."""
    # Heavy imports stay inside the body so job workers pay them once.
    from repro.faults.admission import AdmissionControl
    from repro.faults.counters import FaultCounters
    from repro.faults.plan import FaultPlan
    from repro.serve.router import FleetRouter
    from repro.sim.engine import Simulator
    from repro.workload.loadgen import MixedArrivals, PoissonArrivals

    tenants = [TenantSpec.from_dict(entry) for entry in config["tenants"]]
    fleet_size = int(config["fleet_size"])
    requests = int(config["requests"])
    service_cycles = float(config["batch_service_cycles"])
    slots = int(config["batch_slots"])
    frequency_hz = float(config["frequency_hz"])
    plan = (
        FaultPlan.from_dict(config["plan"])
        if config.get("plan") is not None
        else None
    )

    sim = Simulator()
    counters = FaultCounters()
    shares = [
        spec.slo.share(spec.name, slots, service_cycles) for spec in tenants
    ]
    # The fleet-wide backstop: per-tenant queue bounds and deadlines
    # come from the service classes (the shares); this only arms the
    # one-retry failback path and a far-out default deadline.
    admission = AdmissionControl(
        deadline_cycles=64.0 * service_cycles,
        max_retries=1,
        backoff_cycles=0.5 * service_cycles,
    )
    router = FleetRouter(
        sim,
        shares,
        fleet_size=fleet_size,
        batch_slots=slots,
        batch_service_cycles=service_cycles,
        seed=seed,
        admission=admission,
        fault_plan=plan,
        counters=counters,
    )

    # Offered load: each tenant's rate is its load fraction of one
    # chip's capacity, times the fleet size — constant per-chip
    # utilization across the sweep.
    capacity_per_chip = slots / service_cycles
    rates = [
        spec.load_fraction * capacity_per_chip * fleet_size
        for spec in tenants
    ]
    streams = [
        PoissonArrivals(
            rate,
            seed=[seed, zlib.crc32(ARRIVALS_SUBSTREAM.encode("utf-8")), index],
        )
        for index, rate in enumerate(rates)
    ]
    mixed = MixedArrivals(streams)

    remaining = requests

    def _schedule_next() -> None:
        gap, source = mixed.next_tagged()

        def _fire(source: int = source) -> None:
            nonlocal remaining
            router.submit(tenants[source].name)
            remaining -= 1
            if remaining:
                _schedule_next()

        sim.after(gap, _fire)

    _schedule_next()
    router.schedule_kills(requests / sum(rates))

    sim.run()
    if router.outstanding_requests:
        raise RuntimeError(
            f"fleet failed to drain: {router.outstanding_requests} "
            "request(s) still outstanding after the simulation drained"
        )

    shed = router.shed_by_tenant()
    timed_out = router.timed_out_by_tenant()
    duration = router.last_completion_cycle

    # Per-tenant accounting identity — every placed request ended
    # exactly one way. A violation here is a dispatcher bug (the retry
    # leak this module's regression tests pin), not a report problem.
    for spec in tenants:
        name = spec.name
        placed = router.submitted_by_tenant[name]
        ended = (
            router.completed_by_tenant[name]
            + shed[name]
            + timed_out[name]
            + router.failover_dropped_by_tenant[name]
        )
        if placed != ended:
            raise RuntimeError(
                f"tenant {name!r} accounting identity broken: "
                f"submitted {placed} != completed + shed + timed_out "
                f"+ failover_dropped = {ended}"
            )

    classes: Dict[str, Dict[str, Any]] = {}
    for spec in tenants:
        cls = spec.slo
        entry = classes.setdefault(
            cls.name,
            {
                "tenants": [],
                "submitted": 0,
                "completed": 0,
                "shed": 0,
                "timed_out": 0,
                "failover_dropped": 0,
                "unroutable": 0,
                "slo_cycles": cls.slo_cycles(service_cycles),
                "_sketch": QuantileSketch(),
            },
        )
        entry["tenants"].append(spec.name)
        entry["submitted"] += router.submitted_by_tenant[spec.name]
        entry["completed"] += router.completed_by_tenant[spec.name]
        entry["shed"] += shed[spec.name]
        entry["timed_out"] += timed_out[spec.name]
        entry["failover_dropped"] += router.failover_dropped_by_tenant[
            spec.name
        ]
        entry["unroutable"] += router.unroutable_by_tenant[spec.name]
        entry["_sketch"].merge(router.sketches[spec.name])
    for entry in classes.values():
        sketch = entry.pop("_sketch")
        completed = entry["completed"]
        if completed:
            entry["p50_cycles"] = sketch.quantile(50)
            entry["p99_cycles"] = sketch.quantile(99)
            entry["p999_cycles"] = sketch.quantile(99.9)
        else:
            entry["p50_cycles"] = None
            entry["p99_cycles"] = None
            entry["p999_cycles"] = None
        entry["slo_met"] = (
            entry["p99_cycles"] is not None
            and entry["p99_cycles"] <= entry["slo_cycles"]
        )
        entry["sustained_rps"] = completed / duration * frequency_hz

    return {
        "fleet_size": fleet_size,
        "duration_cycles": duration,
        "totals": {
            "submitted": sum(router.submitted_by_tenant.values()),
            "completed": sum(router.completed_by_tenant.values()),
            "shed": sum(shed.values()),
            "timed_out": sum(timed_out.values()),
            "failover_redispatched": router.failover_redispatched,
            "failover_dropped": router.failover_dropped,
            "unroutable": router.unroutable,
            "chips_killed": len(router.chips_killed),
        },
        "classes": classes,
    }


def _canonical(point: Dict[str, Any]) -> str:
    return json.dumps(jsonable(point), sort_keys=True, allow_nan=False)


def run_scenario(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Execute one fleet-size scenario from pure data — the
    ``serve.fleet_scenario`` job. Runs the simulation twice and stamps
    the curve point with its double-run determinism verdict."""
    first = _simulate(config, seed)
    second = _simulate(config, seed)
    first["reproducible"] = _canonical(first) == _canonical(second)
    return first


def _map_scenarios(
    specs: List[Dict[str, Any]], seed: int, executor: Optional[Any]
) -> List[Dict[str, Any]]:
    """Run scenario specs, in order, as ``serve.fleet_scenario`` jobs
    through ``executor``, or in this process through
    ``JobRunner(jobs=1)`` when there is none."""
    from repro.exec.jobs import Job
    from repro.exec.scheduler import JobRunner

    runner = executor if executor is not None else JobRunner(jobs=1)
    return runner.map(
        [Job("serve.fleet_scenario", spec, seed=seed) for spec in specs]
    )


def run(
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    tenants: Optional[Sequence[TenantSpec]] = None,
    requests_per_chip: int = DEFAULT_REQUESTS_PER_CHIP,
    seed: int = 7,
    executor: Optional[Any] = None,
) -> FleetReport:
    """Execute the tenant-mix matrix and return the validated report.

    Args:
        fleet_sizes: Strictly increasing fleet sizes to sweep.
        tenants: The tenant mix (default: :func:`default_tenants`).
        requests_per_chip: Measured requests per chip per scenario.
        seed: Base seed for arrivals, placement, and kill times.
        executor: Optional :class:`repro.exec.scheduler.JobRunner`; scenarios
            (independent by construction) fan out across workers.
    """
    from repro.core.equinox import EquinoxAccelerator
    from repro.dse.table1 import equinox_configuration
    from repro.faults.plan import FaultPlan, WorkerFaultSpec
    from repro.models.lstm import deepbench_lstm

    sizes = [int(size) for size in fleet_sizes]
    if not sizes or sizes != sorted(set(sizes)) or sizes[0] < 1:
        raise ValueError(
            f"fleet sizes must be strictly increasing positive ints, "
            f"got {list(fleet_sizes)}"
        )
    if requests_per_chip < 1:
        raise ValueError(
            f"requests_per_chip must be >= 1, got {requests_per_chip}"
        )
    mix = list(tenants) if tenants is not None else default_tenants()

    config = equinox_configuration(LATENCY_CLASS)
    probe = EquinoxAccelerator(config, deepbench_lstm())
    calibration = {
        "latency_class": LATENCY_CLASS,
        "batch_service_cycles": probe.batch_service_cycles(),
        "batch_slots": probe.batch_slots,
        "frequency_hz": config.frequency_hz,
    }

    def _plan(fleet_size: int) -> Optional[Dict[str, Any]]:
        crashed = tuple(range(1, fleet_size, KILL_STRIDE))
        if not crashed:
            return None
        return FaultPlan(
            seed=seed, workers=WorkerFaultSpec(crashed=crashed)
        ).to_dict()

    specs = [
        {
            "fleet_size": size,
            "requests": requests_per_chip * size,
            "tenants": [spec.to_dict() for spec in mix],
            "plan": _plan(size),
            "batch_service_cycles": calibration["batch_service_cycles"],
            "batch_slots": calibration["batch_slots"],
            "frequency_hz": calibration["frequency_hz"],
        }
        for size in sizes
    ]
    curve = _map_scenarios(specs, seed, executor)

    report = FleetReport(
        seed=seed,
        tenants=[spec.to_dict() for spec in mix],
        service_classes={
            name: service_class(name).to_dict()
            for name in dict.fromkeys(spec.service_class for spec in mix)
        },
        calibration=calibration,
        fault_plan=specs[-1]["plan"],
        curve=curve,
    )
    problems = validate_fleet_report(report.to_dict())
    if problems:
        raise RuntimeError(
            "fleet report failed self-validation: " + "; ".join(problems[:5])
        )
    return report


def render(report: FleetReport) -> str:
    """Format the RPS/latency-vs-fleet-size table per SLO class."""
    calibration = report.calibration
    lines = [
        f"Fleet serving matrix (seed={report.seed}, "
        f"{len(report.tenants)} tenant(s), "
        f"design point {calibration.get('latency_class')}) — "
        f"schema {SCHEMA_ID}",
        "",
        f"{'fleet':>5} {'class':<17} {'rps':>12} {'p50 (cyc)':>12} "
        f"{'p99 (cyc)':>12} {'p999 (cyc)':>12} {'slo (cyc)':>12} "
        f"{'met':>4} {'shed':>6} {'kill':>5} {'repro':>6}",
    ]
    lines.append("-" * len(lines[-1]))

    def _cell(value: Any) -> str:
        return "—" if value is None else f"{value:12.0f}"

    for point in report.curve:
        killed = point["totals"]["chips_killed"]
        repro = "ok" if point.get("reproducible") else "FAIL"
        for name in sorted(point["classes"]):
            entry = point["classes"][name]
            lines.append(
                f"{point['fleet_size']:>5} {name:<17} "
                f"{entry['sustained_rps']:>12.1f} "
                f"{_cell(entry['p50_cycles']):>12} "
                f"{_cell(entry['p99_cycles']):>12} "
                f"{_cell(entry['p999_cycles']):>12} "
                f"{entry['slo_cycles']:>12.0f} "
                f"{'yes' if entry['slo_met'] else 'NO':>4} "
                f"{entry['shed']:>6d} {killed:>5d} {repro:>6}"
            )
    bad = [
        str(point["fleet_size"])
        for point in report.curve
        if not point.get("reproducible")
    ]
    lines.append("")
    lines.append(
        "determinism self-check: every scenario ran twice from its seed — "
        + (
            "all summaries identical"
            if not bad
            else f"MISMATCH at fleet size(s) {', '.join(bad)}"
        )
    )
    return "\n".join(lines)
