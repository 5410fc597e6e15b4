"""One benchmark repeat: run one workload in this fresh process.

    PYTHONPATH=src python benchmarks/e2e/child.py WORKLOAD --seed S [--trace]

run.py starts this script once per repeat, so every repeat pays the
imports and compiles a user pays on each CLI run. It prints one JSON
line: a span per harness call, each operation's output digest and
broken invariants, the workload's work counts and its model-accuracy
sidecar. With ``--trace`` it also samples where the CPU time went, per
``repro`` package.
"""

import argparse
import json
import os
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: The ``repro`` packages the sampler charges time to. Other ``repro``
#: packages and ticks with no ``repro`` frame go to ``rest``.
LAYERS = (
    "sim", "hw", "core", "obs", "kernels", "arith", "train", "models",
    "dse", "analysis", "workload",
)

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Requested sampling interval; the kernel rounds it up to its own tick
#: (4 ms on a 250 Hz kernel).
TICK_S = 0.001


class PackageSampler:
    """A SIGPROF sampler that charges process CPU time to packages.

    Each tick charges the CPU time used since the previous tick to the
    innermost frame whose file lies under ``package_root``. Python runs
    signal handlers between bytecodes, so time inside a C function or
    builtin lands on its Python caller. Ticks that arrive during one
    long C call merge into one; charging CPU time rather than counting
    ticks keeps that time.
    """

    def __init__(self, package_root: Path):
        self.prefix = os.path.join(str(package_root), "")
        self.cpu_s: Dict[str, float] = {}
        self._last = 0.0

    def layer(self, frame: Any) -> str:
        while frame is not None:
            path = frame.f_code.co_filename
            if path.startswith(self.prefix):
                package, sep, _ = path[len(self.prefix):].partition(os.sep)
                return package if sep and package in LAYERS else "rest"
            frame = frame.f_back
        return "rest"

    def _charge(self, layer: str) -> None:
        now = time.process_time()
        self.cpu_s[layer] = self.cpu_s.get(layer, 0.0) + now - self._last
        self._last = now

    def _tick(self, signum: int, frame: Any) -> None:
        self._charge(self.layer(frame))

    def start(self) -> None:
        self._last = time.process_time()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> Dict[str, float]:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._charge("rest")
        return dict(self.cpu_s)


class Spans:
    """(op id, phase, start, end) around each call the harness makes,
    in seconds since the child started."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records: List[List[Any]] = []

    @contextmanager
    def span(self, op: str, phase: str) -> Iterator[None]:
        start = time.perf_counter() - self.origin
        try:
            yield
        finally:
            self.records.append(
                [op, phase, start, time.perf_counter() - self.origin]
            )

    def total(self, phase: str) -> float:
        return sum(end - start for _, p, start, end in self.records if p == phase)


def run_workload(name: str, seed: int, spans: Spans) -> Dict[str, Any]:
    with spans.span("import", "setup"):
        import workloads

    ops: List[Dict[str, Any]] = []
    outputs: Dict[str, Any] = {}
    per_op_counts = []
    for op in workloads.WORKLOADS[name]:
        record: Dict[str, Any] = {"id": op.id, "digest": None, "broken": []}
        try:
            with spans.span(op.id, "setup"):
                state = op.setup(seed)
            with spans.span(op.id, "run"):
                output = op.run(state, seed)
            record["digest"] = workloads.digest(op, output)
            record["broken"] = op.broken(output)
            outputs[op.id] = output
            per_op_counts.append(op.counts(state, output))
        except Exception as exc:  # one failed op must not hide the others
            traceback.print_exc()
            record["broken"] = [f"raised {type(exc).__name__}: {exc}"]
        ops.append(record)
    return {
        "ops": ops,
        "counts": workloads.totals(per_op_counts),
        "sidecar": workloads.sidecar(name, outputs),
    }


def main(argv: Optional[List[str]] = None) -> int:
    spans = Spans()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sampler = PackageSampler(PACKAGE_ROOT) if args.trace else None
    if sampler is not None:
        sampler.start()
    result = run_workload(args.workload, args.seed, spans)
    if sampler is not None:
        result["self_cpu_s"] = sampler.stop()
    result["setup_s"] = spans.total("setup")
    result["spans"] = spans.records
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
