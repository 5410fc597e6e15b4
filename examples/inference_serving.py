#!/usr/bin/env python3
"""Inference serving study: latency/throughput across design points.

The scenario from the paper's introduction: an online service owner
must pick an accelerator shape under a tail-latency SLO. This example
sweeps offered load on the four Table 1 design points (inference only)
and prints each design's p99-vs-throughput curve plus the largest load
it can carry under the paper's service-level target — reproducing the
"relaxing the latency constraint buys ~6x throughput" trade-off of
Figures 6/7 from the user's side.

Run: python examples/inference_serving.py
"""

from repro.core.equinox import EquinoxAccelerator
from repro.dse.table1 import equinox_configuration, pareto_table
from repro.models.lstm import deepbench_lstm

LOADS = (0.2, 0.5, 0.8, 0.95)
SLO_MULTIPLE = 10.0


def main() -> None:
    print("Table 1 design points (hbfp8):")
    for name, point in pareto_table("hbfp8").items():
        print(
            f"  {name:6s} n={point.n:4d} {point.frequency_mhz:4.0f} MHz "
            f"{point.throughput_top_s:6.1f} TOp/s "
            f"service {point.service_time_us:6.1f} us"
        )

    # The SLO is set once, against the 500us design's mean service time.
    reference = EquinoxAccelerator(
        equinox_configuration("500us"), deepbench_lstm()
    )
    target_ms = SLO_MULTIPLE * reference.batch_service_us() / 1e3
    print(f"\nservice-level target: p99 <= {target_ms:.2f} ms\n")

    for name in ("min", "50us", "500us", "none"):
        config = equinox_configuration(name)
        best_under_target = 0.0
        rows = []
        for load in LOADS:
            equinox = EquinoxAccelerator(config, deepbench_lstm())
            report = equinox.run(load=load, requests=10 * equinox.batch_slots)
            p99_ms = report.p99_latency_us / 1e3
            rows.append(
                f"    load {load:4.0%}: {report.inference_top_s:6.1f} TOp/s, "
                f"p99 {p99_ms:7.2f} ms"
            )
            if p99_ms <= target_ms:
                best_under_target = max(best_under_target, report.inference_top_s)
        print(f"  equinox_{name}:")
        print("\n".join(rows))
        print(
            f"    -> sustains {best_under_target:.0f} TOp/s under the target\n"
        )


if __name__ == "__main__":
    main()
