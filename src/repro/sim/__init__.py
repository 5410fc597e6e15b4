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
