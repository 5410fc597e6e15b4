#!/usr/bin/env python3
"""Quickstart: build Equinox_500µs, serve inference, piggyback training.

Walks the core API end to end:

1. pick a Pareto-optimal design point from the analytical DSE (Table 1);
2. install the DeepBench LSTM as the inference service and another LSTM
   as the piggybacked training service;
3. drive Poisson inference traffic at 50 % load;
4. read back the paper's headline metrics: p99 latency vs the
   service-level target, harvested training throughput, and the MMU
   cycle breakdown.

Run: python examples/quickstart.py
"""

from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration
from repro.models.lstm import deepbench_lstm
from repro.models.training import build_training_plan


def main() -> None:
    # 1. A design point off the Pareto frontier (paper Table 1).
    config = equinox_configuration("500us")
    print(
        f"design point: {config.name} — {config.m} arrays of "
        f"{config.n}x{config.n} PEs, {config.w} wide, "
        f"{config.frequency_hz / 1e6:.0f} MHz, "
        f"{config.peak_throughput_top_s:.0f} TOp/s peak"
    )

    # 2. Install services: LSTM inference + LSTM training (batch 128).
    lstm = deepbench_lstm()
    equinox = EquinoxAccelerator(config, lstm, training_model=deepbench_lstm())
    print(
        f"inference service: batch {equinox.batch_slots}, "
        f"service time {equinox.batch_service_us():.0f} us, "
        f"capacity {equinox.capacity_requests_per_s() / 1e3:.0f}k req/s"
    )

    # The reference a dedicated training accelerator would achieve.
    dedicated = build_training_plan(lstm, config).dedicated_throughput_top_s()

    # 3. Drive Poisson traffic at 50 % of capacity.
    report = equinox.run(load=0.5, requests=10 * equinox.batch_slots)

    # 4. Headline metrics.
    target_ms = 10.0 * equinox.batch_service_us() / 1e3
    print(f"\nat 50% load over {report.requests_completed} requests:")
    print(
        f"  inference: {report.inference_top_s:.0f} TOp/s, "
        f"p99 latency {report.p99_latency_us / 1e3:.2f} ms "
        f"(target {target_ms:.2f} ms — "
        f"{'met' if report.meets_target(target_ms * 1e3) else 'VIOLATED'})"
    )
    print(
        f"  training (for free): {report.training_top_s:.0f} TOp/s = "
        f"{report.training_top_s / dedicated * 100:.0f}% of a dedicated "
        f"training accelerator ({dedicated:.0f} TOp/s)"
    )
    print("  MMU cycles:", end=" ")
    print(
        ", ".join(
            f"{name} {frac * 100:.0f}%"
            for name, frac in report.cycle_breakdown.items()
        )
    )


if __name__ == "__main__":
    main()
