"""Analytical design-space exploration (paper §4).

First-order area (Eq. 1), power (Eq. 2) and performance (Eq. 3) models
over the accelerator dimensions (n, m, w) and clock frequency, under
the 300 mm² die and 75 W package envelopes. The explorer sweeps the
space, extracts the Pareto frontier of throughput against latency
(Figure 6), and selects the four named configurations of Table 1
(Equinox_min / Equinox_50µs / Equinox_500µs / Equinox_none) that the
cycle-level evaluation uses.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dse.area import AreaBreakdown, accelerator_area_mm2
    from repro.dse.explorer import DesignPoint, DesignSpaceExplorer
    from repro.dse.pareto import pareto_frontier
    from repro.dse.performance import (
        peak_throughput_top_s,
        service_time_cycles,
        service_time_us,
    )
    from repro.dse.power import PowerBreakdown, accelerator_power_w
    from repro.dse.table1 import (
        EQUINOX_LATENCY_CLASSES,
        equinox_configuration,
        pareto_table,
    )
    from repro.dse.tech import TSMC28, TechnologyModel

__all__ = [
    "TechnologyModel",
    "TSMC28",
    "accelerator_area_mm2",
    "AreaBreakdown",
    "accelerator_power_w",
    "PowerBreakdown",
    "peak_throughput_top_s",
    "service_time_cycles",
    "service_time_us",
    "DesignPoint",
    "DesignSpaceExplorer",
    "pareto_frontier",
    "pareto_table",
    "equinox_configuration",
    "EQUINOX_LATENCY_CLASSES",
]

__getattr__ = lazy_exports(__name__, {
    "AreaBreakdown": "repro.dse.area",
    "accelerator_area_mm2": "repro.dse.area",
    "DesignPoint": "repro.dse.explorer",
    "DesignSpaceExplorer": "repro.dse.explorer",
    "pareto_frontier": "repro.dse.pareto",
    "peak_throughput_top_s": "repro.dse.performance",
    "service_time_cycles": "repro.dse.performance",
    "service_time_us": "repro.dse.performance",
    "PowerBreakdown": "repro.dse.power",
    "accelerator_power_w": "repro.dse.power",
    "EQUINOX_LATENCY_CLASSES": "repro.dse.table1",
    "equinox_configuration": "repro.dse.table1",
    "pareto_table": "repro.dse.table1",
    "TSMC28": "repro.dse.tech",
    "TechnologyModel": "repro.dse.tech",
})
