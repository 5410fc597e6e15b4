"""Figure 6: latency vs throughput design space, hbfp8 and bfloat16.

Plots (as text) the analytic design-space cloud and its Pareto
frontier for both encodings; the qualitative claims to check are the
sub-linear hbfp8 frontier with its knee past ~350 TOp/s, against
bfloat16's early, flat knee below ~70 TOp/s.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.dse.explorer import DesignPoint
from repro.dse.pareto import pareto_frontier
from repro.dse.table1 import design_space
from repro.eval.report import render_table


@dataclass(frozen=True)
class Fig6Result:
    clouds: Dict[str, List[DesignPoint]]
    frontiers: Dict[str, List[DesignPoint]]

    def knee_throughput(self, encoding: str) -> float:
        """Highest frontier throughput still under 100 µs — a proxy for
        where the knee sits."""
        eligible = [
            p for p in self.frontiers[encoding] if p.service_time_us <= 100.0
        ]
        if not eligible:
            return 0.0
        return max(p.throughput_top_s for p in eligible)

    def max_throughput(self, encoding: str) -> float:
        return max(p.throughput_top_s for p in self.frontiers[encoding])


def run(encodings=("hbfp8", "bfloat16")) -> Fig6Result:
    clouds = {enc: design_space(enc) for enc in encodings}
    return Fig6Result(
        clouds=clouds,
        frontiers={enc: pareto_frontier(cloud) for enc, cloud in clouds.items()},
    )


def render(result: Fig6Result, max_rows: int = 24) -> str:
    parts = []
    for encoding, points in result.frontiers.items():
        shown = points
        if len(shown) > max_rows:
            stride = max(1, len(shown) // max_rows)
            shown = shown[::stride] + [shown[-1]]
        rows = [
            (
                p.n, p.m, p.w, f"{p.frequency_mhz:.0f}",
                f"{p.throughput_top_s:.1f}", f"{p.service_time_us:.1f}",
                p.bound,
            )
            for p in shown
        ]
        parts.append(
            render_table(
                f"Figure 6 ({encoding}): Pareto frontier "
                f"({len(points)} frontier / "
                f"{len(result.clouds[encoding])} cloud points)",
                ["n", "m", "w", "MHz", "TOp/s", "svc_us", "bound"],
                rows,
            )
        )
    parts.append(
        "knee (<=100us) throughput: "
        + ", ".join(
            f"{enc}={result.knee_throughput(enc):.0f} TOp/s"
            for enc in result.frontiers
        )
    )
    return "\n\n".join(parts)
