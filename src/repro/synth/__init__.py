"""Synthesis proxy: component-level area/power reports (Table 3).

The paper synthesizes Equinox_500µs's compute units and controllers
(Synopsys DC, TSMC 28 nm) and adds CACTI SRAM and HBM interface
numbers. This package produces the same component table from the
calibrated technology model, including the dispatcher logic whose
sub-1 % overhead is one of the paper's headline results, and the
uniform-encoding overhead comparison against a fixed-point-only
inference accelerator.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.synth.report import (
        ComponentReport,
        SynthesisReport,
        encoding_overhead,
        synthesize,
    )

__all__ = [
    "ComponentReport",
    "SynthesisReport",
    "synthesize",
    "encoding_overhead",
]

__getattr__ = lazy_exports(__name__, {
    "ComponentReport": "repro.synth.report",
    "SynthesisReport": "repro.synth.report",
    "encoding_overhead": "repro.synth.report",
    "synthesize": "repro.synth.report",
})
