"""Service-level objective constant.

The paper sets the inference 99th-percentile latency target at 10× the
workload's mean service time on the Equinox_500µs configuration (§5,
following the tail-latency literature).
"""

#: The paper's service-level objective: p99 within this multiple of the
#: mean service time.
SLO_MULTIPLE = 10.0
