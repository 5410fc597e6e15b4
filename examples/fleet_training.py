#!/usr/bin/env python3
"""Fleet-scale free training: many Equinoxes, one model.

The paper's deployment story (§5) assumes synchronous data-parallel
training through a parameter server. This example scales it out: a
fleet of Equinox accelerators, each serving its own slice of a diurnal
inference load, jointly trains one LSTM — and the script answers the
operator's question: how many dedicated training accelerators is the
fleet's idle time worth?

Run: python examples/fleet_training.py
"""

from repro.cluster.fleet import EquinoxFleet
from repro.cluster.parameter_server import ParameterServer
from repro.workload.scenarios import diurnal_load_profile


def main() -> None:
    size = 8
    fleet = EquinoxFleet(
        size=size,
        latency_class="500us",
        server=ParameterServer(network_bytes_per_s=50e9),  # 400 Gb/s fabric
    )
    loads = diurnal_load_profile(points=size, low=0.15, high=0.8)
    print(f"fleet of {size} x {fleet.config.name}, per-worker loads:")
    print("  " + ", ".join(f"{load:.0%}" for load in loads))

    for local_steps in (1, 8, 32):
        report = fleet.train(loads=loads, batches=6, local_steps=local_steps)
        print(
            f"\nsync every {local_steps:2d} local step(s): "
            f"{report.fleet_training_top_s:6.1f} TOp/s harvested = "
            f"{report.dedicated_equivalents:.2f} dedicated accelerators "
            f"(comm {report.round.communication_fraction:.0%}, "
            f"efficiency {report.scaling_efficiency:.0%})"
        )

    report = fleet.train(loads=loads, batches=6, local_steps=8)
    print("\nper-worker detail (sync every 8 steps):")
    print("  worker  load   inf TOp/s  train TOp/s   p99 ms")
    for w in report.workers:
        print(
            f"  {w.worker_id:6d} {w.load:5.0%} {w.inference_top_s:10.1f} "
            f"{w.training_top_s:12.1f} {w.p99_latency_us / 1e3:8.2f}"
        )
    print(
        f"\n=> the fleet trains {report.samples_per_s:,.0f} samples/s for "
        f"free while serving every inference request within its SLO"
    )


if __name__ == "__main__":
    main()
