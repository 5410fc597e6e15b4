"""Synthesis proxy: component-level area/power reports (Table 3).

The paper synthesizes Equinox_500µs's compute units and controllers
(Synopsys DC, TSMC 28 nm) and adds CACTI SRAM and HBM interface
numbers. This package produces the same component table from the
calibrated technology model, including the dispatcher logic whose
sub-1 % overhead is one of the paper's headline results, and the
uniform-encoding overhead comparison against a fixed-point-only
inference accelerator.
"""
