"""Load generation and service-level metrics.

The paper's methodology (§5) drives Equinox with a load generator that
creates inference requests at Poisson arrival rates while training
requests are always backlogged, and sets the 99th-percentile latency
target at 10× the mean service time on the 500 µs configuration. This
package provides the arrival processes (plus diurnal/spike scenarios
for the examples) and the metric helpers the evaluation uses.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workload.loadgen import (
        ArrivalProcess,
        PoissonArrivals,
        TraceArrivals,
        UniformArrivals,
    )
    from repro.workload.scenarios import diurnal_load_profile, spike_load_profile

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "UniformArrivals",
    "TraceArrivals",
    "diurnal_load_profile",
    "spike_load_profile",
]

__getattr__ = lazy_exports(__name__, {
    "ArrivalProcess": "repro.workload.loadgen",
    "PoissonArrivals": "repro.workload.loadgen",
    "TraceArrivals": "repro.workload.loadgen",
    "UniformArrivals": "repro.workload.loadgen",
    "diurnal_load_profile": "repro.workload.scenarios",
    "spike_load_profile": "repro.workload.scenarios",
})
