"""Spike response: the priority guard in the time domain.

An extension experiment beyond the paper's steady-state figures: a
single continuous simulation replays a load step (base → spike → base)
and reports, per time bucket, how the spike guard trades training for
inference headroom and how quickly the harvest recovers — the transient
behaviour §3.2's "round-robin scheduling resumes when the inference
load spike subsides" describes.
"""

from dataclasses import dataclass
from typing import List

from repro.core.equinox import SimulationReport
from repro.eval import runner
from repro.eval.report import render_table
from repro.eval.runner import build_accelerator, latency_target_us
from repro.models.lstm import deepbench_lstm
from repro.workload.scenarios import spike_load_profile


@dataclass(frozen=True)
class SpikeResult:
    profile: List[float]
    reports: List[SimulationReport]
    latency_target_ms: float

    @property
    def spike_buckets(self) -> List[int]:
        peak = max(self.profile)
        return [i for i, v in enumerate(self.profile) if v == peak]

    def training_drop(self) -> float:
        """Harvest during the spike relative to the base before it."""
        first_spike = self.spike_buckets[0]
        base = self.reports[first_spike - 1].training_top_s
        spike = min(self.reports[i].training_top_s for i in self.spike_buckets)
        if base <= 0:
            return 0.0
        return 1.0 - spike / base

    def recovers(self, tolerance: float = 0.25) -> bool:
        """Whether the harvest returns to (1-tolerance)x base after."""
        first_spike = self.spike_buckets[0]
        last_spike = self.spike_buckets[-1]
        base = self.reports[first_spike - 1].training_top_s
        after = max(
            (r.training_top_s for r in self.reports[last_spike + 1 :]),
            default=0.0,
        )
        return after >= (1.0 - tolerance) * base

    def latency_always_under_target(self) -> bool:
        return all(
            r.p99_latency_us <= self.latency_target_ms * 1e3
            for r in self.reports
            if r.requests_completed > 0
        )


def run(
    base: float = 0.3,
    spike: float = 0.95,
    buckets: int = 8,
    spike_start: int = 3,
    spike_len: int = 2,
    dwell_s: float = 0.004,
    latency_class: str = "500us",
    seed: int = 1,
) -> SpikeResult:
    profile = spike_load_profile(
        points=buckets, base=base, spike=spike,
        spike_start=spike_start, spike_len=spike_len,
    )
    acc = build_accelerator(latency_class, training_model=deepbench_lstm())
    reports = acc.run_profile(profile, dwell_s=dwell_s, seed=seed)
    if runner._ACTIVE_CAPTURE is not None:
        # One continuous run_profile, not load-point jobs: feed the
        # capture the accelerator's totals once, at the end.
        runner._ACTIVE_CAPTURE.observe(acc)
    return SpikeResult(
        profile=profile,
        reports=reports,
        latency_target_ms=latency_target_us() / 1e3,
    )


def render(result: SpikeResult) -> str:
    rows = []
    for bucket, (load, report) in enumerate(zip(result.profile, result.reports)):
        rows.append(
            (
                bucket,
                f"{load:.2f}",
                f"{report.inference_top_s:.1f}",
                f"{report.training_top_s:.1f}",
                f"{report.p99_latency_us / 1e3:.2f}",
            )
        )
    table = render_table(
        f"Spike response (target {result.latency_target_ms:.2f} ms)",
        ["bucket", "load", "inf TOp/s", "train TOp/s", "p99 ms"],
        rows,
    )
    summary = (
        f"training throttled {result.training_drop() * 100:.0f}% during the "
        f"spike; harvest recovered: {result.recovers()}; latency target "
        f"held throughout: {result.latency_always_under_target()}"
    )
    return table + "\n\n" + summary
