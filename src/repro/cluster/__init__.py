"""Datacenter-scale composition: a fleet of Equinox accelerators.

The paper's methodology assumes distributed synchronous training with a
parameter server that "receives gradients, aggregates them, generates
an updated model, and transfers it to Equinox for the next iteration"
(§5). This package scales that deployment story out: a fleet of
Equinox accelerators, each serving its own inference load, jointly
trains one model data-parallel. Each worker's harvest comes from its
own event-level simulation; the synchronous barrier and the parameter
server's aggregation/broadcast compose them into fleet-level rounds —
valid because workers share no simulated resource other than the
parameter server itself.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.fleet import EquinoxFleet, FleetReport, WorkerReport
    from repro.cluster.parameter_server import ParameterServer, SyncRound

__all__ = [
    "ParameterServer",
    "SyncRound",
    "EquinoxFleet",
    "FleetReport",
    "WorkerReport",
]

__getattr__ = lazy_exports(__name__, {
    "EquinoxFleet": "repro.cluster.fleet",
    "FleetReport": "repro.cluster.fleet",
    "WorkerReport": "repro.cluster.fleet",
    "ParameterServer": "repro.cluster.parameter_server",
    "SyncRound": "repro.cluster.parameter_server",
})
