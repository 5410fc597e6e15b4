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
