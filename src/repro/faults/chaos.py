"""The chaos scenario matrix behind ``python -m repro chaos``.

Each scenario is one seeded :class:`FaultPlan` (plus, where relevant,
an admission-control policy or a fleet round timeout) driven against
the same workload. Every scenario is executed **twice** and the two
reports compared by value — the printed table therefore doubles as a
determinism self-check: a ``FAIL`` in the ``repro`` column means fault
injection perturbed state outside its seeded substreams.

The table reports degradation relative to the fault-free control arm:
p99 latency and harvested training throughput for single-accelerator
scenarios, samples/s and surviving-worker counts for fleet scenarios.
"""

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.fleet import EquinoxFleet
from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.faults.admission import AdmissionControl
from repro.faults.plan import (
    FaultPlan,
    HBMFaultSpec,
    MMUFaultSpec,
    RequestFaultSpec,
    WorkerFaultSpec,
)
from repro.models.lstm import deepbench_lstm

#: Design point and drive level for every scenario: modest load on the
#: default latency class keeps the whole matrix CI-friendly while still
#: queueing enough work for faults to matter.
LATENCY_CLASS = "500us"
DEFAULT_LOAD = 0.6
DEFAULT_REQUESTS = 320
FLEET_SIZE = 4
FLEET_BATCHES = 2
FLEET_MIN_WORKERS = 2
#: Fleet barrier timeout as a multiple of the fault-free iteration time
#: (self-calibrated from the fleet control arm each run).
ROUND_TIMEOUT_X = 2.0
#: Straggler slowdown in the fleet scenario — chosen to overshoot the
#: round timeout so partial aggregation actually triggers.
STRAGGLER_SLOWDOWN = 4.0


@dataclass(frozen=True)
class ChaosRow:
    """One scenario's outcome (single-accelerator or fleet)."""

    name: str
    description: str
    kind: str  # "accel" | "fleet"
    p99_latency_us: float
    training_top_s: float
    samples_per_s: float
    faults_injected: int
    recoveries: int
    notable: Dict[str, float]
    reproducible: bool
    workers_aggregated: int = 0
    workers_dropped: int = 0


def _accel_key(report) -> Tuple:
    return (
        report.p99_latency_us,
        report.mean_latency_us,
        report.training_top_s,
        report.inference_top_s,
        report.requests_completed,
        report.rejected_requests,
        report.request_timeouts,
        tuple(sorted(report.faults.as_dict().items())),
    )


def _fleet_key(report) -> Tuple:
    return (
        report.samples_per_s,
        report.fleet_training_top_s,
        report.round.workers_aggregated,
        report.round.workers_dropped,
        tuple(w.p99_latency_us for w in report.workers),
        tuple(sorted(report.faults.as_dict().items())),
    )


def _run_accel(
    plan: Optional[FaultPlan],
    admission: Optional[AdmissionControl],
    load: float,
    requests: int,
    seed: int,
):
    config = equinox_configuration(LATENCY_CLASS)
    model = deepbench_lstm()
    accelerator = EquinoxAccelerator(
        config,
        model,
        training_model=model,
        fault_plan=plan,
        admission=admission,
    )
    return accelerator.run(load=load, requests=requests, seed=seed), accelerator


def _run_fleet(
    plan: Optional[FaultPlan],
    round_timeout_s: Optional[float],
    load: float,
    seed: int,
):
    fleet = EquinoxFleet(
        FLEET_SIZE,
        latency_class=LATENCY_CLASS,
        fault_plan=plan,
        round_timeout_s=round_timeout_s,
        min_workers=FLEET_MIN_WORKERS,
    )
    report = fleet.train(
        [load] * FLEET_SIZE, batches=FLEET_BATCHES, seed=seed
    )
    return report, fleet


def _accel_row(
    name: str,
    description: str,
    plan: Optional[FaultPlan],
    admission: Optional[AdmissionControl],
    load: float,
    requests: int,
    seed: int,
) -> Tuple[ChaosRow, object]:
    first, accelerator = _run_accel(plan, admission, load, requests, seed)
    second, _ = _run_accel(plan, admission, load, requests, seed)
    row = ChaosRow(
        name=name,
        description=description,
        kind="accel",
        p99_latency_us=first.p99_latency_us,
        training_top_s=first.training_top_s,
        samples_per_s=0.0,
        faults_injected=first.faults.faults_injected,
        recoveries=first.faults.recoveries,
        notable=first.faults.nonzero(),
        reproducible=_accel_key(first) == _accel_key(second),
    )
    artifact = accelerator.run_report(first, f"chaos.{name}", kind="chaos")
    return row, artifact


def _fleet_row(
    name: str,
    description: str,
    plan: Optional[FaultPlan],
    round_timeout_s: Optional[float],
    load: float,
    seed: int,
) -> Tuple[ChaosRow, object, object]:
    first, fleet = _run_fleet(plan, round_timeout_s, load, seed)
    second, _ = _run_fleet(plan, round_timeout_s, load, seed)
    worst_p99 = max(w.p99_latency_us for w in first.workers)
    row = ChaosRow(
        name=name,
        description=description,
        kind="fleet",
        p99_latency_us=worst_p99,
        training_top_s=first.fleet_training_top_s,
        samples_per_s=first.samples_per_s,
        faults_injected=first.faults.faults_injected,
        recoveries=first.faults.recoveries,
        notable=first.faults.nonzero(),
        reproducible=_fleet_key(first) == _fleet_key(second),
        workers_aggregated=first.round.workers_aggregated,
        workers_dropped=first.round.workers_dropped,
    )
    artifact = fleet.run_report(first, f"chaos.{name}")
    return row, first, artifact


def run_scenario(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Execute one scenario from pure data — the ``chaos.scenario`` job.

    ``config`` carries everything but the seed: ``kind`` ("accel" |
    "fleet"), ``name``, ``description``, an optional ``plan``
    (:meth:`FaultPlan.to_dict`), and per-kind drive parameters
    (``load``/``requests``/``admission`` or ``load``/
    ``round_timeout_s``). Returns JSON-able ``row`` + ``artifact``
    dicts (plus ``round_compute_s`` for fleet scenarios, which
    calibrates the chaos round timeout).
    """
    plan = (
        FaultPlan.from_dict(config["plan"])
        if config.get("plan") is not None
        else None
    )
    kind = str(config["kind"])
    name = str(config["name"])
    description = str(config["description"])
    if kind == "accel":
        admission = (
            AdmissionControl.from_dict(config["admission"])
            if config.get("admission") is not None
            else None
        )
        row, artifact = _accel_row(
            name, description, plan, admission,
            float(config["load"]), int(config["requests"]), seed,
        )
        return {"row": asdict(row), "artifact": artifact.to_dict()}
    if kind == "fleet":
        timeout = config.get("round_timeout_s")
        row, report, artifact = _fleet_row(
            name, description, plan,
            float(timeout) if timeout is not None else None,
            float(config["load"]), seed,
        )
        return {
            "row": asdict(row),
            "artifact": artifact.to_dict(),
            "round_compute_s": report.round.compute_s,
        }
    raise ValueError(f"unknown scenario kind {kind!r}")


def _map_scenarios(
    specs: List[Dict[str, Any]], seed: int, executor: Optional[Any]
) -> List[Dict[str, Any]]:
    """Run scenario specs, in order, as ``chaos.scenario`` jobs through
    ``executor``, or in this process through ``JobRunner(jobs=1)`` when
    there is none."""
    from repro.exec.jobs import Job
    from repro.exec.scheduler import JobRunner

    runner = executor if executor is not None else JobRunner(jobs=1)
    return runner.map(
        [Job("chaos.scenario", spec, seed=seed) for spec in specs]
    )


def run(
    load: float = DEFAULT_LOAD,
    requests: int = DEFAULT_REQUESTS,
    seed: int = 7,
    executor: Optional[Any] = None,
) -> Dict:
    """Execute the chaos matrix and return the scenario rows.

    Args:
        load: Offered inference load (fraction of saturation) for every
            scenario.
        requests: Requests measured per single-accelerator scenario.
        seed: Base seed for both the arrival processes and the fault
            plans.
        executor: Optional :class:`repro.exec.scheduler.JobRunner`; scenarios
            (independent by construction) fan out across workers, with
            one barrier where the fleet-chaos round timeout is
            calibrated from the fault-free fleet round.
    """
    config = equinox_configuration(LATENCY_CLASS)
    # One throwaway accelerator to express deadlines/queues in units of
    # the design point's own service time.
    probe = EquinoxAccelerator(config, deepbench_lstm())
    service_cycles = probe.batch_service_cycles()
    slots = probe.batch_slots

    specs: List[Dict[str, Any]] = [
        {
            "kind": "accel", "name": "baseline",
            "description": "fault-free control arm",
            "plan": None, "admission": None,
            "load": load, "requests": requests,
        },
        {
            "kind": "accel", "name": "hbm_ecc",
            "description": "transient HBM ECC errors, bounded retry",
            "plan": FaultPlan(
                seed=seed, hbm=HBMFaultSpec(error_rate=0.05, max_retries=3)
            ).to_dict(),
            "admission": None, "load": load, "requests": requests,
        },
        {
            "kind": "accel", "name": "tile_stalls",
            "description": "tile/PE stalls inflating MMU occupancy",
            "plan": FaultPlan(
                seed=seed,
                mmu=MMUFaultSpec(
                    stall_rate=0.10, stall_cycles=0.25 * service_cycles
                ),
            ).to_dict(),
            "admission": None, "load": load, "requests": requests,
        },
        {
            "kind": "accel", "name": "lossy_frontend",
            "description": "request drops and wire delays",
            "plan": FaultPlan(
                seed=seed,
                requests=RequestFaultSpec(
                    drop_rate=0.05,
                    delay_rate=0.10,
                    delay_cycles=0.5 * service_cycles,
                ),
            ).to_dict(),
            "admission": None, "load": load, "requests": requests,
        },
        {
            "kind": "accel", "name": "overload_shed",
            "description": "delay faults vs bounded queue + deadlines",
            "plan": FaultPlan(
                seed=seed,
                requests=RequestFaultSpec(
                    delay_rate=0.25, delay_cycles=2.0 * service_cycles
                ),
            ).to_dict(),
            "admission": AdmissionControl(
                max_queue_requests=4 * slots,
                deadline_cycles=8.0 * service_cycles,
                max_retries=1,
                backoff_cycles=0.5 * service_cycles,
            ).to_dict(),
            "load": load, "requests": requests,
        },
        {
            "kind": "fleet", "name": "fleet_baseline",
            "description": f"{FLEET_SIZE}-worker fleet, fault-free",
            "plan": None, "round_timeout_s": None, "load": load,
        },
    ]

    rows: List[ChaosRow] = []
    #: Per-scenario structured run artifacts (``RunReport``), keyed by
    #: scenario name — what ``python -m repro chaos --report-dir`` dumps.
    artifacts: Dict[str, object] = {}

    def _collect(result: Dict[str, Any]) -> ChaosRow:
        from repro.obs.report import RunReport

        row = ChaosRow(**result["row"])
        rows.append(row)
        artifacts[row.name] = RunReport.from_dict(result["artifact"])
        return row

    results = _map_scenarios(specs, seed, executor)
    for result in results:
        _collect(result)
    # Self-calibrate the barrier timeout off the fault-free round so the
    # chaos straggler (slowed STRAGGLER_SLOWDOWN×) lands beyond it —
    # the one sequencing barrier in the matrix.
    healthy_iteration_s = float(results[-1]["round_compute_s"])
    chaos_spec = {
        "kind": "fleet", "name": "fleet_chaos",
        "description": "HBM errors + 1 crash + 1 straggler, "
        "partial aggregation",
        "plan": FaultPlan(
            seed=seed,
            hbm=HBMFaultSpec(error_rate=0.005, max_retries=3),
            workers=WorkerFaultSpec(
                crashed=(FLEET_SIZE - 1,),
                stragglers=((1, STRAGGLER_SLOWDOWN),),
            ),
        ).to_dict(),
        "round_timeout_s": ROUND_TIMEOUT_X * healthy_iteration_s,
        "load": load,
    }
    _collect(_map_scenarios([chaos_spec], seed, executor)[0])
    return {
        "rows": rows,
        "artifacts": artifacts,
        "load": load,
        "requests": requests,
        "seed": seed,
    }


def _ratio(value: float, base: float) -> str:
    if base <= 0 or value != value or value == float("inf"):
        return "—" if value != value else "inf"
    return f"{value / base:5.2f}x"


def render(result: Dict) -> str:
    """Format the degradation table."""
    rows: List[ChaosRow] = result["rows"]
    base = {r.kind: r for r in rows if r.name.endswith("baseline")}
    lines = [
        "Chaos matrix "
        f"(load={result['load']:g}, requests={result['requests']}, "
        f"seed={result['seed']}) — degradation vs fault-free baseline",
        "",
        f"{'scenario':<16} {'p99 (us)':>10} {'vs base':>8} "
        f"{'train TOP/s':>12} {'vs base':>8} {'inj':>5} {'rec':>5} "
        f"{'workers':>8} {'repro':>6}",
    ]
    lines.append("-" * len(lines[-1]))
    for row in rows:
        baseline = base.get(row.kind)
        p99_ratio = (
            _ratio(row.p99_latency_us, baseline.p99_latency_us)
            if baseline and baseline is not row
            else "  1.00x"
        )
        top_ratio = (
            _ratio(row.training_top_s, baseline.training_top_s)
            if baseline and baseline is not row
            else "  1.00x"
        )
        workers = (
            f"{row.workers_aggregated}/{FLEET_SIZE}"
            if row.kind == "fleet"
            else "—"
        )
        lines.append(
            f"{row.name:<16} {row.p99_latency_us:>10.1f} {p99_ratio:>8} "
            f"{row.training_top_s:>12.3f} {top_ratio:>8} "
            f"{row.faults_injected:>5d} {row.recoveries:>5d} "
            f"{workers:>8} {'ok' if row.reproducible else 'FAIL':>6}"
        )
    lines.append("")
    for row in rows:
        if row.notable:
            detail = ", ".join(
                f"{k}={v:g}" for k, v in sorted(row.notable.items())
            )
            lines.append(f"  {row.name}: {detail}")
    bad = [r.name for r in rows if not r.reproducible]
    lines.append("")
    lines.append(
        "determinism self-check: every scenario ran twice from its seed — "
        + ("all reports identical" if not bad else f"MISMATCH in {bad}")
    )
    return "\n".join(lines)
