"""Experiment harness: one module per table/figure of the paper.

Each module exposes a ``run(...)`` returning structured results and a
``render(...)`` producing the text table/series the paper reports. The
benchmarks under ``benchmarks/`` are thin wrappers that execute these
and print the output; EXPERIMENTS.md records paper-vs-measured.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.eval import (
        fig2,
        fig6,
        fig7,
        fig8,
        fig9,
        fig10,
        fig11,
        spike,
        table1,
        table2,
        table3,
    )
    from repro.eval.runner import build_accelerator, simulate_load_point

__all__ = [
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "spike",
    "table1",
    "table2",
    "table3",
    "simulate_load_point",
    "build_accelerator",
]

__getattr__ = lazy_exports(__name__, {
    "fig2": "repro.eval.fig2",
    "fig6": "repro.eval.fig6",
    "fig7": "repro.eval.fig7",
    "fig8": "repro.eval.fig8",
    "fig9": "repro.eval.fig9",
    "fig10": "repro.eval.fig10",
    "fig11": "repro.eval.fig11",
    "spike": "repro.eval.spike",
    "table1": "repro.eval.table1",
    "table2": "repro.eval.table2",
    "table3": "repro.eval.table3",
    "build_accelerator": "repro.eval.runner",
    "simulate_load_point": "repro.eval.runner",
})
