#!/usr/bin/env python3
"""Custom design-space exploration with the analytical models.

Shows the DSE API beyond the canned Table 1 picks: sweep a custom
technology (e.g., a smaller 150 mm² die at 40 W for an edge part),
extract the Pareto frontier, inspect what binds each design (area vs
power) and where the data-movement power share collapses — the §4
analysis, reproduced on the user's own constraints.

Run: python examples/design_space_exploration.py
"""

from dataclasses import replace

from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.pareto import pareto_frontier
from repro.dse.power import accelerator_power_w
from repro.dse.tech import TSMC28


def main() -> None:
    # An edge-class envelope: half the die, half the power, 16 MB SRAM.
    edge_tech = replace(
        TSMC28, die_area_mm2=150.0, power_budget_w=40.0, sram_mb=16.0
    )
    explorer = DesignSpaceExplorer(
        encoding="hbfp8",
        tech=edge_tech,
        n_values=range(1, 129),
    )
    cloud = explorer.sweep()
    frontier = pareto_frontier(cloud)
    print(
        f"edge envelope ({edge_tech.die_area_mm2:.0f} mm2, "
        f"{edge_tech.power_budget_w:.0f} W): {len(cloud)} feasible points, "
        f"{len(frontier)} on the Pareto frontier\n"
    )

    print("   n    m   w   MHz   TOp/s   svc_us  bound  data-movement power")
    stride = max(1, len(frontier) // 12)
    for point in frontier[::stride]:
        power = accelerator_power_w(
            point.n, point.m, point.w, point.frequency_hz,
            point.encoding, edge_tech,
        )
        print(
            f"{point.n:4d} {point.m:4d} {point.w:3d} "
            f"{point.frequency_mhz:5.0f} {point.throughput_top_s:7.1f} "
            f"{point.service_time_us:8.1f}  {point.bound:5s}  "
            f"{power.data_movement_fraction:6.0%}"
        )

    knee = max(
        (p for p in frontier if p.service_time_us <= 100.0),
        key=lambda p: p.throughput_top_s,
        default=None,
    )
    best = max(frontier, key=lambda p: p.throughput_top_s)
    low = min(frontier, key=lambda p: p.service_time_us)
    print(
        f"\nlatency-optimal: {low.throughput_top_s:.1f} TOp/s at "
        f"{low.service_time_us:.1f} us"
    )
    if knee is not None:
        print(
            f"knee (<=100 us): {knee.throughput_top_s:.1f} TOp/s = "
            f"{knee.throughput_top_s / low.throughput_top_s:.1f}x the "
            f"latency-optimal design — the paper's §4 trade-off, on an "
            f"edge budget"
        )
    print(
        f"unconstrained:   {best.throughput_top_s:.1f} TOp/s at "
        f"{best.service_time_us:.1f} us"
    )


if __name__ == "__main__":
    main()
