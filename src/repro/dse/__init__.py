"""Analytical design-space exploration (paper §4).

First-order area (Eq. 1), power (Eq. 2) and performance (Eq. 3) models
over the accelerator dimensions (n, m, w) and clock frequency, under
the 300 mm² die and 75 W package envelopes. The explorer sweeps the
space, extracts the Pareto frontier of throughput against latency
(Figure 6), and selects the four named configurations of Table 1
(Equinox_min / Equinox_50µs / Equinox_500µs / Equinox_none) that the
cycle-level evaluation uses.
"""
