"""Discrete-event simulation kernel.

The paper evaluates Equinox with an in-house cycle-accurate simulator
validated against RTL traces. This package is the reproduction's
equivalent: a deterministic event-driven kernel with cycle-resolution
timestamps, serial resources with priority queueing (execution units),
bandwidth channels (the DRAM link), and statistics collectors (tail
latency, throughput, per-category cycle accounting).

The hardware models in :mod:`repro.hw` and the Equinox front-end in
:mod:`repro.core` are state machines driven by this kernel.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.engine import Event, Simulator
    from repro.sim.resources import BandwidthChannel, SerialResource
    from repro.sim.stats import CycleAccounting, LatencyStats, ThroughputMeter

__all__ = [
    "Simulator",
    "Event",
    "SerialResource",
    "BandwidthChannel",
    "LatencyStats",
    "CycleAccounting",
    "ThroughputMeter",
]

__getattr__ = lazy_exports(__name__, {
    "Event": "repro.sim.engine",
    "Simulator": "repro.sim.engine",
    "BandwidthChannel": "repro.sim.resources",
    "SerialResource": "repro.sim.resources",
    "CycleAccounting": "repro.sim.stats",
    "LatencyStats": "repro.sim.stats",
    "ThroughputMeter": "repro.sim.stats",
})
