"""Ablations of Equinox's design choices (DESIGN.md per-experiment index).

Three studies beyond the paper's figures:

* hardware vs software scheduling — the §6 claim that a software
  control plane cannot harvest training without violating latency;
* staging-capacity sensitivity — how the <2% staging slice sizes the
  training prefetch pipeline;
* spike-guard threshold — the latency/harvest trade of the
  installation-time queue threshold.
"""

import pytest

from repro.analysis.program_verifier import ProgramVerificationError
from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.hw.config import AcceleratorConfig
from repro.models.lstm import deepbench_lstm


def _accelerator(scheduler="priority", staging_fraction=0.02,
                 queue_threshold=None):
    base = equinox_configuration("500us")
    config = AcceleratorConfig(
        name=base.name, n=base.n, m=base.m, w=base.w,
        frequency_hz=base.frequency_hz, encoding=base.encoding,
        staging_fraction=staging_fraction,
    )
    return EquinoxAccelerator(
        config, deepbench_lstm(), training_model=deepbench_lstm(),
        scheduler=scheduler, queue_threshold=queue_threshold,
    )


def test_ablation_software_scheduling(run_once):
    def run():
        rows = []
        for scheduler in ("priority", "software"):
            acc = _accelerator(scheduler=scheduler)
            report = acc.run(load=0.5, requests=8 * acc.batch_slots)
            rows.append(
                (scheduler, report.training_top_s, report.p99_latency_us / 1e3)
            )
        return rows

    def render(rows):
        lines = ["Ablation: hardware vs software scheduling @50% load",
                 "scheduler   train TOp/s   p99 ms"]
        for name, train, p99 in rows:
            lines.append(f"{name:10s} {train:12.1f} {p99:8.2f}")
        return "\n".join(lines)

    rows = run_once(run, render)
    by_name = {name: train for name, train, _ in rows}
    # Software scheduling harvests a small fraction of the hardware
    # scheduler's training throughput (the paper reports ~none).
    assert by_name["software"] < 0.5 * by_name["priority"]


def test_ablation_staging_capacity(run_once):
    # A 0.5% slice is refused at install: the compiler never splits a
    # job below one instruction, and one instruction's operand stream of
    # the LSTM training program is larger than the slice (EQX104).
    with pytest.raises(ProgramVerificationError) as refused:
        _accelerator(staging_fraction=0.005)
    assert "EQX104" in {d.rule_id for d in refused.value.diagnostics}

    def run():
        rows = []
        for fraction in (0.01, 0.02, 0.08):
            acc = _accelerator(staging_fraction=fraction)
            report = acc.run(load=0.4, requests=8 * acc.batch_slots)
            rows.append((fraction, report.training_top_s))
        return rows

    def render(rows):
        lines = ["Ablation: staging slice size vs training harvest @40% load",
                 "staging %   train TOp/s"]
        for fraction, train in rows:
            lines.append(f"{fraction * 100:8.1f} {train:14.1f}")
        return "\n".join(lines)

    rows = run_once(run, render)
    # More staging never hurts; the paper's 2% sits near the knee.
    assert rows[-1][1] >= rows[0][1] * 0.95


def test_ablation_queue_threshold(run_once):
    def run():
        rows = []
        acc0 = _accelerator()
        batch = acc0.batch_slots
        for threshold in (batch // 2, 2 * batch, 8 * batch):
            acc = _accelerator(queue_threshold=threshold)
            report = acc.run(load=0.8, requests=8 * acc.batch_slots)
            rows.append(
                (threshold, report.training_top_s, report.p99_latency_us / 1e3)
            )
        return rows

    def render(rows):
        lines = ["Ablation: spike-guard threshold @80% load",
                 "threshold req   train TOp/s   p99 ms"]
        for threshold, train, p99 in rows:
            lines.append(f"{threshold:13d} {train:13.1f} {p99:8.2f}")
        return "\n".join(lines)

    rows = run_once(run, render)
    # A looser guard lets more training through.
    assert rows[-1][1] >= rows[0][1]
