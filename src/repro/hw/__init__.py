"""Hardware component models.

Timing-level models of every block in the paper's Figure 3 — the matrix
multiply unit (m systolic arrays of n×n w-wide PEs), the SIMD unit, the
activation/weight buffers, the DRAM (HBM) interface and im2col — plus a
functional per-cycle systolic-array model used the way the authors used
RTL traces: to validate the event-driven timing formulas.
"""
