#!/usr/bin/env python3
"""Piggybacked training over a datacenter day.

Inference accelerators average ~30 % load because demand varies through
the day (paper §1). This example replays a diurnal load profile with an
evening traffic spike through ONE persistent Equinox_500µs — queues,
in-flight batches and the training pipeline carry across hours — and
accounts, bucket by bucket, how much training the priority scheduler
harvests from the idle cycles, and how the spike guard sacrifices
training, not latency, when the spike hits.

Run: python examples/piggyback_training.py
"""

from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.models.lstm import deepbench_lstm
from repro.models.training import build_training_plan
from repro.workload.scenarios import diurnal_load_profile

SLO_MULTIPLE = 10.0
DWELL_S = 0.02  # simulated seconds per two-hour bucket


def main() -> None:
    config = equinox_configuration("500us")
    lstm = deepbench_lstm()
    dedicated = build_training_plan(lstm, config).dedicated_throughput_top_s()

    profile = diurnal_load_profile(points=12, low=0.1, high=0.7, peak_hour=14)
    profile[9] = 0.95  # an 18:00 traffic spike on top of the diurnal swing

    equinox = EquinoxAccelerator(
        config, lstm, training_model=deepbench_lstm()
    )
    target_ms = SLO_MULTIPLE * equinox.batch_service_us() / 1e3
    print(
        f"{config.name}: dedicated-training reference {dedicated:.0f} TOp/s, "
        f"p99 target {target_ms:.2f} ms\n"
    )

    reports = equinox.run_profile(profile, dwell_s=DWELL_S, seed=7)

    print("hour  load   inf TOp/s  train TOp/s  harvest   p99 ms   SLO")
    total_train = 0.0
    for bucket, (load, report) in enumerate(zip(profile, reports)):
        p99_ms = report.p99_latency_us / 1e3
        harvest = report.training_top_s / dedicated
        total_train += report.training_top_s
        print(
            f"{bucket * 2:4d}  {load:4.0%}  {report.inference_top_s:9.1f}  "
            f"{report.training_top_s:11.1f}  {harvest:7.0%}  {p99_ms:7.2f}"
            f"   {'ok' if p99_ms <= target_ms else 'VIOLATED'}"
        )

    mean_train = total_train / len(profile)
    print(
        f"\naverage harvested training: {mean_train:.0f} TOp/s "
        f"({mean_train / dedicated:.0%} of a dedicated accelerator) — "
        f"training obtained for free from inference idle cycles"
    )


if __name__ == "__main__":
    main()
