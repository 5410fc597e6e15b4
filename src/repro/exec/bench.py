"""The perf-trajectory bench harness behind ``python -m repro bench``.

Times a pinned suite of kernels — one per hot layer of the codebase —
and appends the result to the repo's performance record as a
schema-validated ``BENCH_<rev>.json``. The kernels are *pinned*: their
shapes and seeds never change between revisions, so two BENCH files
differ only by code speed (plus host noise), and "make a hot path
measurably faster" (ROADMAP) has a measurement to move.

Wall-clock timing is inherently nondeterministic, so bench results are
never cached and never enter a :class:`~repro.obs.report.RunReport`;
each kernel instead returns a deterministic *work proof* (a count or a
checksum of what it computed) that IS recorded — a kernel that got
faster by silently doing less work is visible in the proof column.
"""

import json
import os
import platform
import sys
import time
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.canonical import code_fingerprint

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_DIFF_TOLERANCE",
    "default_bench_path",
    "diff_benches",
    "latest_bench_path",
    "pinned_kernels",
    "run_suite",
    "validate_bench",
    "write_bench",
]

#: Schema tag every BENCH artifact carries.
BENCH_SCHEMA = "repro.exec/bench/v1"

#: Default repeats per kernel (after one untimed warmup).
DEFAULT_REPEATS = 3

#: Default ``--diff`` regression ratio: a kernel must be slower than
#: the committed baseline by this factor before the gate fails. Wall
#: time across CI hosts is noisy, so the tolerance is deliberately
#: generous — the gate catches order-of-magnitude regressions (an
#: accidentally quadratic loop, a dropped fast path), not 10% drift.
DEFAULT_DIFF_TOLERANCE = 2.0


# ----------------------------------------------------------------------
# Pinned kernels
# ----------------------------------------------------------------------


def _kernel_dse_sweep() -> float:
    """Analytic design-space sweep: n 1..96 x full frequency/width grid
    on a fresh explorer (no memo carry-over between repeats)."""
    from repro.dse.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer("hbfp8", n_values=range(1, 97))
    return float(len(explorer.sweep()))


def _kernel_load_point() -> float:
    """One Figure-7 load point: Equinox_500us at 50 % offered load."""
    from repro.eval.runner import build_accelerator, simulate_load_point

    accelerator = build_accelerator("500us", "hbfp8")
    report = simulate_load_point(accelerator, 0.5, batches=2, seed=1)
    return float(report.requests_completed)


#: Pinned ``serve.route`` shape: fleet/tenant mix, request count and
#: chip-relative service time are frozen so two BENCH files time the
#: same placement + fair-share + failover traffic.
_SERVE_FLEET = 8
_SERVE_SLOTS = 8
_SERVE_SERVICE_CYCLES = 1000.0
_SERVE_REQUESTS = 4000


def _kernel_serve_route() -> float:
    """Fleet-router hot path: p2c placement, WDRR batch formation and
    one mid-run chip-kill failover over a 3-tenant SLO mix."""
    from repro.faults.plan import FaultPlan, WorkerFaultSpec
    from repro.serve.classes import TenantSpec
    from repro.serve.router import FleetRouter
    from repro.sim.engine import Simulator
    from repro.workload.loadgen import MixedArrivals, PoissonArrivals

    tenants = [
        TenantSpec("interactive", "latency-critical", 0.25),
        TenantSpec("bulk", "best-effort", 1.0),
        TenantSpec("trainer", "batch-training", 0.35),
    ]
    shares = [
        spec.slo.share(spec.name, _SERVE_SLOTS, _SERVE_SERVICE_CYCLES)
        for spec in tenants
    ]
    sim = Simulator()
    router = FleetRouter(
        sim,
        shares,
        fleet_size=_SERVE_FLEET,
        batch_slots=_SERVE_SLOTS,
        batch_service_cycles=_SERVE_SERVICE_CYCLES,
        seed=7,
        fault_plan=FaultPlan(seed=7, workers=WorkerFaultSpec(crashed=(1,))),
    )
    capacity = _SERVE_SLOTS / _SERVE_SERVICE_CYCLES
    rates = [
        spec.load_fraction * capacity * _SERVE_FLEET for spec in tenants
    ]
    mixed = MixedArrivals(
        [PoissonArrivals(rate, seed=[7, index]) for index, rate in enumerate(rates)]
    )
    remaining = _SERVE_REQUESTS

    def _schedule() -> None:
        gap, source = mixed.next_tagged()

        def _fire(source: int = source) -> None:
            nonlocal remaining
            router.submit(tenants[source].name)
            remaining -= 1
            if remaining:
                _schedule()

        sim.after(gap, _fire)

    _schedule()
    router.schedule_kills(_SERVE_REQUESTS / sum(rates))
    sim.run()
    for _ in range(8):
        if not router.outstanding_requests:
            break
        router.flush()
        sim.run()
    return float(
        sum(router.completed_by_tenant.values())
        + router.failover_redispatched
    )


def _kernel_chaos_scenario() -> float:
    """One fault-injected accelerator run (HBM ECC retries)."""
    from repro.core.equinox import EquinoxAccelerator
    from repro.dse.table1 import equinox_configuration
    from repro.faults.plan import FaultPlan, HBMFaultSpec
    from repro.models.lstm import deepbench_lstm

    model = deepbench_lstm()
    accelerator = EquinoxAccelerator(
        equinox_configuration("500us"),
        model,
        training_model=model,
        fault_plan=FaultPlan(
            seed=7, hbm=HBMFaultSpec(error_rate=0.05, max_retries=3)
        ),
    )
    report = accelerator.run(load=0.6, requests=96, seed=7)
    return float(
        report.requests_completed + report.faults.faults_injected
    )


# ----------------------------------------------------------------------
# Simulator drain-loop bench (sim.drain.reference vs sim.drain.batched)
#
# The event-loop microbench: a deterministic soup shaped like one
# Figure-7 load point's traffic — a Poisson admission process plus two
# fire-and-forget completions per arrival. The completion offsets are
# the systolic closed form's two phases for a deep tile (wavefront
# fill ~n + rows ≈ 120 cycles to issue-complete, result streaming
# ~n·w ≈ 1200 cycles to pipeline-drain), so at rate 1/8 the pending
# set sits ~180 deep — the regime a high-load Figure-7 point runs in.
# Both arms fire the same events at the same times (``next_gaps`` is
# stream-equal to scalar draws; completion offsets are constants), so
# the work proofs are identical by construction; they differ only in
# which engine scheme runs them:
#
# * ``reference`` — the pre-rewrite engine, preserved verbatim in
#   ``repro.sim.legacy``: an object heap ordered by interpreted
#   ``Event.__lt__``, one scalar RNG draw per arrival, every event
#   allocating a keyed handle, peek-then-pop scalar drain;
# * ``batched`` — the production scheme: block admission via
#   ``next_gaps`` + bulk ``at_calls`` timeline scheduling (the whole
#   block's arrivals and closed-form completions pushed at admission,
#   the per-tile stream-batching pattern), tuple-entry heap, anonymous
#   lane, batch-drained loop.
#
# Callbacks are shared module-level functions on purpose: the bench
# isolates the loop, not closure construction.
# ----------------------------------------------------------------------

_DRAIN_ARRIVALS = 2000
_DRAIN_BLOCK = 32
_DRAIN_OCCUPANCY = 120.0
_DRAIN_PIPELINE = 1200.0


def _kernel_sim_drain(batched: bool) -> float:
    from repro.workload.loadgen import PoissonArrivals

    arrivals = PoissonArrivals(rate_per_cycle=0.125, seed=50)
    counters = [0, 0, 0]  # arrivals, issues, dones

    def _issue() -> None:
        counters[1] += 1

    def _done() -> None:
        counters[2] += 1

    if batched:
        from repro.sim.engine import LOOP_BATCHED, Simulator

        sim = Simulator()

        def _submit() -> None:
            counters[0] += 1

        admitted = [1]  # arrivals scheduled so far (the seed _tail below)

        def _admit_block() -> None:
            to_admit = min(_DRAIN_BLOCK, _DRAIN_ARRIVALS - admitted[0])
            if to_admit <= 0:
                return
            admitted[0] += to_admit
            gaps = arrivals.next_gaps(to_admit)
            times = []
            t = sim.now
            for gap in gaps:
                t += gap
                times.append(t)
            sim.at_calls(times[:-1], _submit)
            sim.at_call(times[-1], _tail)
            sim.at_calls([t + _DRAIN_OCCUPANCY for t in times], _issue)
            sim.at_calls([t + _DRAIN_PIPELINE for t in times], _done)

        def _tail() -> None:
            _submit()
            _admit_block()

        seed_t = arrivals.next_gap()
        sim.at_call(seed_t, _tail)
        sim.at_call(seed_t + _DRAIN_OCCUPANCY, _issue)
        sim.at_call(seed_t + _DRAIN_PIPELINE, _done)
        sim.run(loop=LOOP_BATCHED)
    else:
        from repro.sim.legacy import Simulator as LegacySimulator

        sim = LegacySimulator()

        def _arrive() -> None:
            counters[0] += 1
            sim.after(_DRAIN_OCCUPANCY, _issue)
            sim.after(_DRAIN_PIPELINE, _done)
            if counters[0] < _DRAIN_ARRIVALS:
                sim.after(arrivals.next_gap(), _arrive)

        sim.after(arrivals.next_gap(), _arrive)
        sim.run()

    return (
        float(sim.events_processed)
        + float(counters[0] + counters[1] + counters[2])
        + round(sim.now, 6)
    )


def _kernel_gemm() -> float:
    """HBFP8 datapath GEMM, 192x192 seeded operands."""
    import numpy as np

    from repro.arith.hbfp import hbfp_gemm

    rng = np.random.default_rng(42)
    a = rng.standard_normal((192, 192), dtype=np.float32)
    b = rng.standard_normal((192, 192), dtype=np.float32)
    out = hbfp_gemm(a, b)
    return float(np.abs(np.asarray(out, dtype=np.float32)).sum())


def _kernel_hbfp_quantize() -> float:
    """Block-floating-point round trip of a 512x512 seeded tensor."""
    import numpy as np

    from repro.arith.hbfp import HBFP8, hbfp_quantization_noise

    rng = np.random.default_rng(43)
    values = rng.standard_normal((512, 512), dtype=np.float32)
    return hbfp_quantization_noise(values, HBFP8)


# ----------------------------------------------------------------------
# Kernel-pair benches (repro.kernels reference vs fast)
#
# Each registered kernel pair gets two pinned entries differing only in
# the pinned backend, so every BENCH file records the reference/fast
# speedup trajectory. Operands are built once per process (memoized)
# and quantization happens outside the timed region — the entries time
# the kernel itself. Work proofs are checksums of the outputs; the
# bit-exactness contract makes the reference and fast proofs of a pair
# identical, which is itself a visible invariant in the artifact.
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bfp_matmul_operands():
    import numpy as np

    from repro.arith.bfp import BFP8, BlockFloatTensor

    rng = np.random.default_rng(44)
    a = BlockFloatTensor.from_float(rng.standard_normal((256, 512)), BFP8)
    b = BlockFloatTensor.from_float(rng.standard_normal((512, 256)), BFP8)
    return a, b


def _kernel_pair_bfp_matmul(backend: str) -> float:
    """Tile-lattice BFP matmul at a Figure-2-scale shape (256x512x256)."""
    import numpy as np

    from repro.arith.bfp import bfp_matmul

    a, b = _bfp_matmul_operands()
    out = bfp_matmul(a, b, backend=backend)
    return float(np.abs(out).sum())


@lru_cache(maxsize=None)
def _quantize_operand():
    import numpy as np

    return np.random.default_rng(45).standard_normal((768, 768))


def _kernel_pair_quantize(backend: str) -> float:
    """Stochastic BFP quantization of a 768x768 tensor (seeded RNG)."""
    import numpy as np

    from repro.arith.bfp import BFP8, BlockFloatTensor

    tensor = BlockFloatTensor.from_float(
        _quantize_operand(),
        BFP8,
        rounding="stochastic",
        rng=np.random.default_rng(46),
        backend=backend,
    )
    return float(tensor.mantissas.sum()) + float(tensor.exponents.sum())


@lru_cache(maxsize=None)
def _systolic_setup():
    import numpy as np

    from repro.hw.systolic import SystolicArray

    rng = np.random.default_rng(47)
    n, w, rows = 8, 4, 32
    array = SystolicArray(n, w, rng.standard_normal((n * w, n)))
    x = rng.standard_normal((rows, n * w))
    return array, x


def _kernel_pair_systolic(backend: str) -> float:
    """Weight-stationary systolic model, n=8 w=4, 32 activation rows."""
    array, x = _systolic_setup()
    outputs, last_cycle, completion = array.run(x, backend=backend)
    return float(outputs.sum()) + float(last_cycle) + float(completion.sum())


@lru_cache(maxsize=None)
def _im2col_operand():
    import numpy as np

    return np.random.default_rng(48).standard_normal(
        (8, 16, 32, 32)
    ).astype(np.float32)


def _kernel_pair_im2col(backend: str) -> float:
    """im2col lowering of an 8x16x32x32 batch, 3x3 kernel, pad 1."""
    from repro.hw.im2col import im2col

    cols = im2col(_im2col_operand(), kernel=3, stride=1, padding=1,
                  backend=backend)
    return float(abs(cols).sum())


def _pair_entries() -> Dict[str, Tuple[str, Callable[[], float]]]:
    pairs: Dict[str, Tuple[str, Callable[[str], float]]] = {
        "kernels.bfp_matmul": (
            "BFP tile matmul 256x512x256 (fig2 scale)",
            _kernel_pair_bfp_matmul,
        ),
        "kernels.quantize": (
            "BFP stochastic quantize 768x768", _kernel_pair_quantize,
        ),
        "kernels.systolic": (
            "systolic model n=8 w=4 rows=32", _kernel_pair_systolic,
        ),
        "kernels.im2col": (
            "im2col 8x16x32x32 k3 p1", _kernel_pair_im2col,
        ),
    }
    entries: Dict[str, Tuple[str, Callable[[], float]]] = {}
    for base, (description, fn) in pairs.items():
        for backend in ("reference", "fast"):
            entries[f"{base}.{backend}"] = (
                f"{description} [{backend}]",
                (lambda fn=fn, backend=backend: fn(backend)),
            )
    return entries


def pinned_kernels() -> Dict[str, Tuple[str, Callable[[], float]]]:
    """``name -> (description, zero-arg kernel)`` in canonical order."""
    suite = {
        "dse.sweep": (
            "design-space sweep, n 1..96, full f/w grid", _kernel_dse_sweep,
        ),
        "eval.load_point": (
            "fig7 load point, Equinox_500us @ 0.5 load", _kernel_load_point,
        ),
        "sim.drain.reference": (
            f"event soup {_DRAIN_ARRIVALS} arrivals, keyed lane + "
            "reference loop",
            lambda: _kernel_sim_drain(False),
        ),
        "sim.drain.batched": (
            f"event soup {_DRAIN_ARRIVALS} arrivals, anonymous lane + "
            "batched loop",
            lambda: _kernel_sim_drain(True),
        ),
        "chaos.scenario": (
            "fault-injected run, HBM ECC 5% err", _kernel_chaos_scenario,
        ),
        "serve.route": (
            f"fleet router, {_SERVE_FLEET} chips x {_SERVE_REQUESTS} "
            "reqs, 3-tenant mix + chip kill",
            _kernel_serve_route,
        ),
        "arith.gemm": (
            "hbfp8 GEMM 192x192", _kernel_gemm,
        ),
        "arith.hbfp_quantize": (
            "BFP round trip 512x512", _kernel_hbfp_quantize,
        ),
    }
    suite.update(_pair_entries())
    return suite


# ----------------------------------------------------------------------
# Checkpoint overhead
#
# The ``checkpoint`` section prices the crash-consistency machinery:
# the same executor-backed design-space sweep is timed twice — once
# bare, once with the journal + periodic checkpoint barrier at the
# default ``--checkpoint-every`` — and the committed artifact records
# the ratio. The acceptance budget is < 5% overhead: every journal
# append is an fsync, so this entry is what keeps the barrier honest
# as job granularity or journal format evolve.
# ----------------------------------------------------------------------

#: Pinned checkpoint workload: a Figure-7 load curve — the
#: simulation-heavy experiment jobs the checkpoint machinery targets.
#: Load grid and batch count are frozen so two BENCH files price the
#: same journal traffic.
_CHECKPOINT_LOADS = 12
_CHECKPOINT_BATCHES = 8


def _checkpoint_jobs() -> List[Any]:
    from repro.exec.jobs import Job

    return [
        Job(
            "eval.load_point",
            {
                "latency_class": "500us",
                "encoding": "hbfp8",
                "load": round(0.08 * (index + 1), 2),
                "batches": _CHECKPOINT_BATCHES,
            },
            seed=1,
        )
        for index in range(_CHECKPOINT_LOADS)
    ]


def _checkpoint_run(checkpoint_dir: Optional[str] = None) -> float:
    """One executor-backed load curve; checkpointed iff a dir is given.

    Mirrors the real ``--checkpoint-dir`` path: journal append (flush +
    fsync) per job, checkpoint save every ``DEFAULT_CHECKPOINT_EVERY``
    executed jobs.
    """
    from repro.exec.cli import DEFAULT_CHECKPOINT_EVERY
    from repro.exec.scheduler import JobRunner

    runner = JobRunner(
        jobs=1,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=(
            DEFAULT_CHECKPOINT_EVERY if checkpoint_dir is not None else 0
        ),
    )
    if runner.checkpoint_store is not None:
        store, scheduler = runner.checkpoint_store, runner.scheduler
        runner.set_checkpoint_cb(lambda: store.save(
            "bench", {"executed": scheduler.counters["executed"]},
            step=scheduler.counters["executed"],
        ))
    results = runner.map(_checkpoint_jobs())
    return float(sum(r["requests_completed"] for r in results))


#: The barrier price is a ratio of two ~600 ms walls, judged against a
#: 5% budget — ~30 ms of signal. Shared CI boxes drift more than that
#: between adjacent runs, so the section always takes at least this
#: many interleaved pairs and lets best-of-N find the floor of each
#: arm, whatever ``--repeats`` the kernel sections use.
_CHECKPOINT_MIN_REPEATS = 5


def _checkpoint_overhead(repeats: int) -> Dict[str, Any]:
    """Time the pinned load curve bare vs checkpointed
    (best-of-repeats, interleaved so drift hits both arms equally)."""
    import shutil
    import tempfile

    from repro.exec.cli import DEFAULT_CHECKPOINT_EVERY

    repeats = max(repeats, _CHECKPOINT_MIN_REPEATS)
    work = _checkpoint_run()  # warmup: imports, simulator caches
    tmp = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        _checkpoint_run(tmp)  # warmup the journal/store path too —
        # its first run pays one-time import and file-creation costs
        # that belong to neither arm's steady state
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    plain: List[float] = []
    checkpointed: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        _checkpoint_run()
        plain.append(time.perf_counter() - started)
        tmp = tempfile.mkdtemp(prefix="bench-ckpt-")
        try:
            started = time.perf_counter()
            _checkpoint_run(tmp)
            checkpointed.append(time.perf_counter() - started)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    plain_s = min(plain)
    checkpointed_s = min(checkpointed)
    return {
        "description": (
            f"fig7 load curve, {_CHECKPOINT_LOADS} jobs, journal + "
            f"checkpoint every {DEFAULT_CHECKPOINT_EVERY}"
        ),
        "jobs": _CHECKPOINT_LOADS,
        "checkpoint_every": DEFAULT_CHECKPOINT_EVERY,
        "repeats": repeats,
        "plain_s": plain_s,
        "checkpointed_s": checkpointed_s,
        "overhead": checkpointed_s / plain_s - 1.0,
        "work": work,
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run_suite(
    repeats: int = DEFAULT_REPEATS,
    kernels: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Time the pinned suite; returns the BENCH document (unwritten)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    suite = pinned_kernels()
    selected = list(suite) if kernels is None else list(kernels)
    unknown = [name for name in selected if name not in suite]
    if unknown:
        raise KeyError(
            f"unknown bench kernels {unknown}; available: {sorted(suite)}"
        )
    timed: Dict[str, Any] = {}
    for name in selected:
        description, kernel = suite[name]
        kernel()  # warmup: imports, lazy sweep caches, numpy dispatch
        samples: List[float] = []
        work = 0.0
        for _ in range(repeats):
            started = time.perf_counter()
            work = kernel()
            samples.append(time.perf_counter() - started)
        timed[name] = {
            "description": description,
            "repeats": repeats,
            "wall_s": {
                "min": min(samples),
                "mean": sum(samples) / len(samples),
                "max": max(samples),
            },
            "per_repeat_s": samples,
            "work": work,
        }
    document = {
        "schema": BENCH_SCHEMA,
        "code_version": code_fingerprint(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "created_unix": int(time.time()),
        "kernels": timed,
    }
    speedups = _speedups(timed)
    if speedups:
        document["speedups"] = speedups
    if kernels is None:  # full-suite runs also price the checkpoint barrier
        document["checkpoint"] = _checkpoint_overhead(repeats)
    return document


def _speedups(timed: Dict[str, Any]) -> Dict[str, Any]:
    """Per-pair reference/fast ratios (best-of-repeats, noise-robust).

    ``<base>.reference`` pairs with ``<base>.fast`` (the kernel pairs)
    or ``<base>.batched`` (the simulator drain loops); either way the
    record's ``fast_s`` is the non-reference arm.
    """
    out: Dict[str, Any] = {}
    for name in timed:
        if not name.endswith(".reference"):
            continue
        base = name[: -len(".reference")]
        fast_name = base + ".fast"
        if fast_name not in timed:
            fast_name = base + ".batched"
        if fast_name not in timed:
            continue
        reference_s = timed[name]["wall_s"]["min"]
        fast_s = timed[fast_name]["wall_s"]["min"]
        out[base] = {
            "reference_s": reference_s,
            "fast_s": fast_s,
            "speedup": reference_s / fast_s,
        }
    return out


def validate_bench(data: Any) -> List[str]:
    """Schema-validate one BENCH document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["bench document must be a JSON object"]
    if data.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r}, got {data.get('schema')!r}"
        )
    if not isinstance(data.get("code_version"), str) or not data.get("code_version"):
        problems.append("code_version must be a non-empty string")
    kernels = data.get("kernels")
    if not isinstance(kernels, dict) or not kernels:
        return problems + ["kernels must be a non-empty object"]
    for name, record in kernels.items():
        if not isinstance(record, dict):
            problems.append(f"kernels.{name} must be an object")
            continue
        wall = record.get("wall_s")
        if not isinstance(wall, dict):
            problems.append(f"kernels.{name}.wall_s must be an object")
            continue
        values = [wall.get(k) for k in ("min", "mean", "max")]
        if not all(
            isinstance(v, (int, float)) and v == v and 0 < v < float("inf")
            for v in values
        ):
            problems.append(
                f"kernels.{name}.wall_s needs finite positive min/mean/max"
            )
        elif not wall["min"] <= wall["mean"] <= wall["max"]:
            problems.append(
                f"kernels.{name}.wall_s min/mean/max out of order"
            )
        repeats = record.get("repeats")
        if not isinstance(repeats, int) or repeats < 1:
            problems.append(f"kernels.{name}.repeats must be a positive int")
    speedups = data.get("speedups")
    if speedups is not None:  # optional section, additive to schema v1
        if not isinstance(speedups, dict):
            problems.append("speedups must be an object when present")
        else:
            for name, record in speedups.items():
                if not isinstance(record, dict):
                    problems.append(f"speedups.{name} must be an object")
                    continue
                values = [
                    record.get(k) for k in ("reference_s", "fast_s", "speedup")
                ]
                if not all(
                    isinstance(v, (int, float))
                    and v == v
                    and 0 < v < float("inf")
                    for v in values
                ):
                    problems.append(
                        f"speedups.{name} needs finite positive "
                        "reference_s/fast_s/speedup"
                    )
    checkpoint = data.get("checkpoint")
    if checkpoint is not None:  # optional section, additive to schema v1
        if not isinstance(checkpoint, dict):
            problems.append("checkpoint must be an object when present")
        else:
            values = [
                checkpoint.get(k) for k in ("plain_s", "checkpointed_s")
            ]
            if not all(
                isinstance(v, (int, float)) and v == v and 0 < v < float("inf")
                for v in values
            ):
                problems.append(
                    "checkpoint needs finite positive plain_s/checkpointed_s"
                )
            overhead = checkpoint.get("overhead")
            if not (
                isinstance(overhead, (int, float))
                and overhead == overhead
                and -1.0 < overhead < float("inf")
            ):
                problems.append(
                    "checkpoint.overhead must be a finite ratio > -1"
                )
            every = checkpoint.get("checkpoint_every")
            if not isinstance(every, int) or every < 1:
                problems.append(
                    "checkpoint.checkpoint_every must be a positive int"
                )
    return problems


# ----------------------------------------------------------------------
# Regression diff (``python -m repro bench --diff <dir>``)
# ----------------------------------------------------------------------


def latest_bench_path(
    directory: "str | os.PathLike[str]",
) -> Optional[str]:
    """Newest valid ``BENCH_*.json`` under ``directory`` (None if none).

    "Newest" is by the document's own ``created_unix`` stamp, not file
    mtime — a fresh checkout resets every mtime, but the stamp travels
    with the artifact. Unreadable or schema-invalid files are skipped:
    the diff gate must not be defeatable by committing a corrupt
    baseline.
    """
    import glob

    best: Optional[Tuple[int, str]] = None
    pattern = os.path.join(os.fspath(directory), "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            continue
        if validate_bench(data):
            continue
        stamp = data.get("created_unix")
        if not isinstance(stamp, int):
            continue
        if best is None or stamp >= best[0]:
            best = (stamp, path)
    return None if best is None else best[1]


def diff_benches(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = DEFAULT_DIFF_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Compare a fresh BENCH document against a committed baseline.

    Returns ``(regressions, notes)``. A regression is a shared kernel
    whose best-of-repeats wall time grew by more than ``tolerance``×;
    notes are informational (kernels only present on one side, work-
    proof drift) and never fail the gate on their own.
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1.0, got {tolerance}")
    regressions: List[str] = []
    notes: List[str] = []
    base_kernels = baseline.get("kernels", {})
    cur_kernels = current.get("kernels", {})
    for name in sorted(set(base_kernels) | set(cur_kernels)):
        if name not in cur_kernels:
            notes.append(f"{name}: in baseline only (kernel removed?)")
            continue
        if name not in base_kernels:
            notes.append(f"{name}: new kernel, no baseline to compare")
            continue
        base_min = base_kernels[name]["wall_s"]["min"]
        cur_min = cur_kernels[name]["wall_s"]["min"]
        ratio = cur_min / base_min
        if ratio > tolerance:
            regressions.append(
                f"{name}: {cur_min * 1e3:.2f} ms vs baseline "
                f"{base_min * 1e3:.2f} ms ({ratio:.2f}x > "
                f"{tolerance:.2f}x tolerance)"
            )
        base_work = base_kernels[name].get("work")
        cur_work = cur_kernels[name].get("work")
        if base_work != cur_work:
            notes.append(
                f"{name}: work proof changed {base_work!r} -> "
                f"{cur_work!r} (kernel does different work than the "
                "baseline revision)"
            )
    return regressions, notes


def default_bench_path(
    out_dir: "str | os.PathLike[str]" = ".", rev: Optional[str] = None
) -> str:
    """``<out_dir>/BENCH_<rev>.json``; rev defaults to the code
    fingerprint's first 12 hex digits."""
    if rev is None:
        rev = code_fingerprint()[:12]
    return os.path.join(os.fspath(out_dir), f"BENCH_{rev}.json")


def write_bench(document: Dict[str, Any], path: str) -> str:
    """Validate and write one BENCH document; raises on schema error."""
    problems = validate_bench(document)
    if problems:
        raise ValueError(
            "refusing to write invalid BENCH document: " + "; ".join(problems)
        )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render_suite(document: Dict[str, Any]) -> str:
    """Human-readable table of one BENCH document."""
    lines = [
        f"bench suite @ {document['code_version'][:12]} "
        f"(python {document['python']}, {document['cpu_count']} cpus, "
        f"repeats={next(iter(document['kernels'].values()))['repeats']})",
        "",
        f"{'kernel':<28} {'min (ms)':>10} {'mean (ms)':>10} "
        f"{'max (ms)':>10} {'work':>14}",
    ]
    lines.append("-" * len(lines[-1]))
    for name, record in document["kernels"].items():
        wall = record["wall_s"]
        lines.append(
            f"{name:<28} {wall['min'] * 1e3:>10.2f} "
            f"{wall['mean'] * 1e3:>10.2f} {wall['max'] * 1e3:>10.2f} "
            f"{record['work']:>14.4g}"
        )
    speedups = document.get("speedups")
    if speedups:
        lines.append("")
        lines.append(
            f"{'kernel pair':<28} {'ref (ms)':>10} {'fast (ms)':>10} "
            f"{'speedup':>10}"
        )
        lines.append("-" * len(lines[-1]))
        for name, record in speedups.items():
            lines.append(
                f"{name:<28} {record['reference_s'] * 1e3:>10.2f} "
                f"{record['fast_s'] * 1e3:>10.2f} "
                f"{record['speedup']:>9.1f}x"
            )
    checkpoint = document.get("checkpoint")
    if checkpoint:
        lines.append("")
        lines.append(
            f"checkpoint overhead: {checkpoint['overhead'] * 100:+.2f}% "
            f"({checkpoint['plain_s'] * 1e3:.2f} ms bare vs "
            f"{checkpoint['checkpointed_s'] * 1e3:.2f} ms with journal + "
            f"checkpoint every {checkpoint['checkpoint_every']}, "
            f"{checkpoint['jobs']} jobs)"
        )
    return "\n".join(lines)
