"""Tests of the end-to-end benchmark harness.

    python -m pytest benchmarks/e2e -q
"""

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run as bench

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def inference_run(tmp_path_factory):
    """One untraced and one traced child of the cheapest simulator
    workload, through run.py itself."""
    out = tmp_path_factory.mktemp("e2e") / "run.json"
    code = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", "inference",
         "--repeats", "1", "--seconds", "0", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert code.returncode == 0, code.stderr
    return json.loads(code.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def _spin_module(tmp_path: Path):
    hw = tmp_path / "repro" / "hw"
    hw.mkdir(parents=True)
    (hw / "spin.py").write_text("def spin(n):\n    return sum(range(n))\n")
    spec = importlib.util.spec_from_file_location("spin", hw / "spin.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampler_charges_builtin_time_to_caller_and_the_rest_to_rest(tmp_path):
    spin = _spin_module(tmp_path)
    sampler = child.PackageSampler(tmp_path / "repro")
    sampler.start()
    start = time.process_time()
    spin.spin(3 * 10**7)  # one long C call: its ticks merge into one
    builtin_cpu = time.process_time() - start
    start = time.process_time()
    total = 0
    for i in range(2 * 10**6):
        total += i
    loop_cpu = time.process_time() - start
    cpu = sampler.stop()

    assert cpu["hw"] >= 0.9 * builtin_cpu
    assert cpu["rest"] >= 0.5 * loop_cpu
    assert set(cpu) <= {"hw", "rest"}


def test_emitted_names_match_benchmark_json(inference_run):
    line, out = inference_run
    spec = bench.load_spec()
    summary = out["workloads"]["inference"]
    assert set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert summary["checked_against"] == "golden digests for seed 0"


def test_simulator_workload_dispatches_no_kernels_and_no_prefetches(inference_run):
    line, _ = inference_run
    assert line["metrics"]["kernels.dispatches"]["value"] == 0
    assert line["metrics"]["core.prefetches"]["value"] == 0


def test_corrupted_golden_entry_counts_as_failed_op(inference_run):
    _, out = inference_run
    summary = out["workloads"]["inference"]
    untraced = summary["children"]["untraced"]
    traced = summary["children"]["traced"]
    golden = json.loads(bench.GOLDEN_PATH.read_text())
    corrupted = copy.deepcopy(golden)
    entries = corrupted["inference"]["0"]
    victim = sorted(entries)[0]
    entries[victim] = "0" * 64

    spec = bench.load_spec()
    clean = bench.summarize("inference", 0, untraced, traced, golden, spec)
    broken = bench.summarize("inference", 0, untraced, traced, corrupted, spec)
    assert clean["failed"] == 0 and clean["correct"]
    assert broken["failed"] == len(untraced) + len(traced)
    assert not broken["correct"]


def test_small_op_digest_identical_across_processes():
    script = (
        "import workloads\n"
        "op = workloads.LoadPoint('lstm', '50us', 'hbfp8', 0.6, 3)\n"
        "print(workloads.digest(op, op.run(op.setup(5), 5)))\n"
    )
    path = os.pathsep.join([str(bench.SRC), str(bench.HERE)])
    env = dict(os.environ, PYTHONPATH=path)
    digests = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True, timeout=60,
        ).stdout.strip()
        for _ in range(2)
    ]
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.05, 10.0, 10.1, 9.95], "lower", "same"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
        # Wide spread and overlapping runs: no verdict either way.
        ([10.0, 14.0, 7.0, 12.0, 8.0], [9.0, 15.0, 6.0, 13.0, 11.0], "lower",
         "unresolved"),
        # Wide spread, but every run of B beats every run of A.
        ([10.0, 14.0, 11.0, 13.0], [5.0, 6.0, 5.5, 6.5], "lower", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert bench.verdict(a, b, 0.1, better)[1] == expected


def test_compare_of_a_run_with_itself_is_same_everywhere(inference_run):
    _, out = inference_run
    spec = bench.load_spec()
    rows = bench.compare(out, out, spec)
    verdicts = {row.split()[1]: row.split()[-1] for row in rows[1:]}
    assert all(verdicts[m["name"]] == "same" for m in spec["end_to_end"])
    assert rows[-1].endswith("identical")
