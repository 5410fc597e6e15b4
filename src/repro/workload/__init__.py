"""Load generation and service-level metrics.

The paper's methodology (§5) drives Equinox with a load generator that
creates inference requests at Poisson arrival rates while training
requests are always backlogged, and sets the 99th-percentile latency
target at 10× the mean service time on the 500 µs configuration. This
package provides the arrival processes (plus diurnal/spike scenarios
for the examples) and the metric helpers the evaluation uses.
"""
