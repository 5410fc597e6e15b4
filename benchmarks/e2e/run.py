"""End-to-end benchmark of the Equinox reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--repeats R] [--trace [0|1]] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --write-golden [--workload NAME ...]

Each repeat of a workload is one fresh child process (child.py), started
one at a time, round-robin over the workloads. Repeats continue until
at least R have run and T seconds per workload have passed. run.py
times each child from spawn to exit and reads its CPU time and peak
RSS from ``os.wait4``. It prints every metric by name and unit as the
median and quartiles over the repeats. A tail percentile would need ten
repeats beyond it, so none is given.

``--trace 1`` pairs each repeat with a traced child that samples CPU
time per ``repro`` package and prints the per-layer metrics instead.
Outputs are checked against golden.json for the seeds it holds, against
invariants for every seed, and across children. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEEDS = (0, 1)

#: A child that runs longer than this is killed; a normal one takes 3-5 s.
CHILD_TIMEOUT_S = 150.0


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def spawn(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """Run one child to completion and return its result plus host
    wall time, CPU time and peak RSS."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    wall_s = time.perf_counter() - start
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {workload} seed {seed} exited with {proc.returncode}"
        )
    result = json.loads(lines[-1])
    result.update(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return result


def measure(
    workloads: Sequence[str], seed: int, seconds: float, repeats: int, trace: bool
) -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
    """Children per workload, keyed ``untraced`` and ``traced``."""
    runs = {w: {"untraced": [], "traced": []} for w in workloads}
    deadline = time.perf_counter() + seconds * len(workloads)
    rounds = 0
    while rounds < repeats or time.perf_counter() < deadline:
        for workload in workloads:
            runs[workload]["untraced"].append(spawn(workload, seed, False))
            if trace:
                runs[workload]["traced"].append(spawn(workload, seed, True))
        rounds += 1
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def failed_ops(ops: List[Dict[str, Any]], expected: Dict[str, str]) -> int:
    """Operations that raised, broke an invariant, or whose digest is
    not the expected one."""
    return sum(
        1 for op in ops
        if op["broken"] or op["digest"] is None
        or op["digest"] != expected.get(op["id"])
    )


def expected_digests(
    workload: str, seed: int, first: Dict[str, Any], golden: Dict[str, Any]
) -> Tuple[Dict[str, str], str]:
    """Golden digests for this seed when committed, else the first
    child's (every child of a run must agree)."""
    committed = golden.get(workload, {}).get(str(seed))
    if committed is not None:
        return committed, f"golden digests for seed {seed}"
    return {op["id"]: op["digest"] for op in first["ops"]}, "cross-child digests"


def summarize(
    workload: str,
    seed: int,
    untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    golden: Dict[str, Any],
    spec: Dict[str, Any],
) -> Dict[str, Any]:
    children = untraced + traced
    expected, checked_against = expected_digests(workload, seed, untraced[0], golden)
    counts = untraced[0]["counts"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    metrics: Dict[str, Dict[str, Any]] = {}
    for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
        samples = [child[name] for child in untraced]
        q1, median, q3 = quartiles(samples)
        metrics[name] = {
            "unit": units[name], "median": median, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples,
        }
    _check_names("end_to_end", metrics, spec)

    layers: Dict[str, Dict[str, Any]] = {}
    if traced:
        for layer in LAYERS + ("rest",):
            samples = []
            for child in traced:
                self_cpu = child["self_cpu_s"]
                value = self_cpu.get(layer, 0.0)
                if layer == "rest":  # interpreter start-up, before sampling
                    value += child["cpu_s"] - sum(self_cpu.values())
                samples.append(value)
            layers[f"{layer}.self_s"] = {"value": statistics.median(samples)}
        for name, value in counts.items():
            layers[name] = {"value": value}
        events = counts["sim.events"]
        layers["sim.us_per_event"] = {
            "value": layers["sim.self_s"]["value"] / events * 1e6 if events else 0.0
        }
        # Each traced child ran right after its untraced twin, so the
        # per-pair ratio cancels most of the host's drift.
        layers["trace.overhead_frac"] = {
            "value": statistics.median(
                t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)
            ) - 1.0
        }
        for name, entry in layers.items():
            entry["unit"] = units.get(name)
        _check_names("per_layer", layers, spec)

    failed = sum(failed_ops(child["ops"], expected) for child in children)
    counts_agree = all(child["counts"] == counts for child in children)
    return {
        "seed": seed,
        "attempted": sum(len(child["ops"]) for child in children),
        "failed": failed,
        "checked_against": checked_against,
        "correct": failed == 0 and counts_agree,
        "counts_agree": counts_agree,
        "metrics": metrics,
        "layers": layers,
        "counts": counts,
        "sidecar": untraced[0]["sidecar"],
        "children": {"untraced": untraced, "traced": traced},
    }


def _check_names(section: str, emitted: Dict[str, Any], spec: Dict[str, Any]) -> None:
    declared = {m["name"] for m in spec[section]}
    if set(emitted) != declared:
        raise RuntimeError(
            f"{section} metrics {sorted(set(emitted) ^ declared)} are emitted "
            "but not declared in BENCHMARK.json, or declared but not emitted"
        )


def render(workload: str, summary: Dict[str, Any]) -> str:
    n_traced = len(summary["children"]["traced"])
    lines = [
        f"== {workload}: seed {summary['seed']}, "
        f"n={summary['metrics']['wall_s']['n']} untraced children"
        + (f", {n_traced} traced" if n_traced else ""),
        f"  {'metric':<22} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11}",
    ]
    for name, m in summary["metrics"].items():
        lines.append(
            f"  {name:<22} {m['unit']:<6} {m['median']:>11.4f} "
            f"{m['q1']:>11.4f} {m['q3']:>11.4f}"
        )
    lines.append(
        f"  ops: {summary['attempted']} attempted, {summary['failed']} failed, "
        f"checked against {summary['checked_against']}"
        + ("" if summary["counts_agree"] else "; WORK COUNTS DIFFER ACROSS CHILDREN")
    )
    if summary["layers"]:
        lines.append("  per layer (self time: median of traced children):")
        for name, m in summary["layers"].items():
            lines.append(f"    {name:<22} {m['unit']:<6} {m['value']:>14.6g}")
    if summary["sidecar"]:
        lines.append(
            "  model accuracy, modelled here vs the paper's simulator (no "
            "real-hardware reference exists; the model is otherwise unvalidated):"
        )
        for label, ours, paper in summary["sidecar"]:
            lines.append(f"    {label}: {ours:.3f} (paper {paper:g})")
    return "\n".join(lines)


def result_line(summaries: Dict[str, Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The result line's JSON object. Metric names get a ``<workload>.``
    prefix when more than one workload ran."""
    metrics = {}
    for workload, summary in summaries.items():
        prefix = f"{workload}." if len(summaries) > 1 else ""
        if trace:
            entries = {k: (m["value"], m["unit"]) for k, m in summary["layers"].items()}
        else:
            entries = {
                k: (m["median"], m["unit"]) for k, m in summary["metrics"].items()
            }
        for name, (value, unit) in entries.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, better: str
) -> Tuple[float, str]:
    """Relative change of B's median against A's (positive = worse) and
    the verdict. The change is unresolved when either side's quartile
    spread exceeds the bound, unless every run of one side beats every
    run of the other."""
    median_a = statistics.median(a)
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (statistics.median(b) - median_a) / median_a
    spread = 0.0
    for side in (a, b):
        q1, median, q3 = quartiles(side)
        spread = max(spread, (q3 - q1) / median)
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    separated = all(beats(x, y) for x in b for y in a) or all(
        beats(y, x) for x in b for y in a
    )
    if spread > bound and not separated:
        return delta, "unresolved"
    if delta > bound:
        return delta, "worse"
    if delta < -bound:
        return delta, "better"
    return delta, "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """One row per (end-to-end metric, workload), plus failed-op and
    work-count checks, for two ``--out`` files."""
    rows = [
        f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':>28} "
        f"{'B median [q1, q3]':>28} {'delta':>8} {'bound':>6}  verdict"
    ]
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        sa, sb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            xs = sa["metrics"][metric["name"]]["samples"]
            ys = sb["metrics"][metric["name"]]["samples"]
            delta, word = verdict(xs, ys, metric["bound"], metric["better"])
            cells = []
            for samples in (xs, ys):
                q1, median, q3 = quartiles(samples)
                cells.append(f"{median:.4f} [{q1:.4f}, {q3:.4f}]")
            rows.append(
                f"{workload:<13} {metric['name']:<12} {cells[0]:>28} {cells[1]:>28} "
                f"{delta:>+8.3f} {metric['bound']:>6.2f}  {word}"
            )
        rows.append(
            f"{workload:<13} failed ops   A {sa['failed']}/{sa['attempted']}, "
            f"B {sb['failed']}/{sb['attempted']}"
        )
        changed = sorted(
            name for name in sa["counts"]
            if sa["counts"][name] != sb["counts"].get(name)
        )
        rows.append(
            f"{workload:<13} work counts  "
            + (f"CHANGED: {', '.join(changed)}" if changed else "identical")
        )
    return rows


def write_golden(workloads: Sequence[str]) -> None:
    """Re-baseline golden.json for GOLDEN_SEEDS from the current code."""
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for workload in workloads:
        for seed in GOLDEN_SEEDS:
            child = spawn(workload, seed, False)
            broken = [op for op in child["ops"] if op["broken"]]
            if broken:
                raise RuntimeError(f"{workload} seed {seed}: broken ops {broken}")
            golden.setdefault(workload, {})[str(seed)] = {
                op["id"]: op["digest"] for op in child["ops"]
            }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    if not SPEC_PATH.is_file() or not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: run from a repository checkout; {SPEC_PATH} and "
            f"{SRC / 'repro'} must exist",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run; repeat for several (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="keep repeating each workload for this long",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="minimum children per workload"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: add traced children and print the per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="write every sample here as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    # Turn SIGTERM into SystemExit so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        rows = compare(a, b, spec)
        print("\n".join(rows))
        return 1 if any(row.endswith("worse") for row in rows) else 0
    if args.write_golden:
        write_golden(workloads)
        return 0

    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    golden = json.loads(GOLDEN_PATH.read_text())
    runs = measure(workloads, args.seed, args.seconds, args.repeats, bool(args.trace))
    summaries = {
        workload: summarize(
            workload, args.seed, run["untraced"], run["traced"], golden, spec
        )
        for workload, run in runs.items()
    }
    for workload, summary in summaries.items():
        print(render(workload, summary))
    if args.out:
        args.out.write_text(
            json.dumps({"seed": args.seed, "workloads": summaries}, indent=1) + "\n"
        )
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
