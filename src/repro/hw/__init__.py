"""Hardware component models.

Timing-level models of every block in the paper's Figure 3 — the matrix
multiply unit (m systolic arrays of n×n w-wide PEs), the SIMD unit, the
activation/weight buffers, the DRAM (HBM) interface and im2col — plus a
functional per-cycle systolic-array model used the way the authors used
RTL traces: to validate the event-driven timing formulas.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hw.buffers import OnChipBuffer
    from repro.hw.config import AcceleratorConfig, DRAMSpec, SRAMBudget
    from repro.hw.dram import HBMInterface
    from repro.hw.im2col import Im2ColUnit, lowered_conv_gemm
    from repro.hw.instructions import (
        Instruction,
        InstructionImage,
        Opcode,
        assemble_inference,
        assemble_training,
    )
    from repro.hw.isa import DRAMRequest, MMUJob, Program, SIMDJob, StepProgram
    from repro.hw.mmu import MatrixMultiplyUnit
    from repro.hw.simd import SIMDUnit
    from repro.hw.systolic import SystolicArray, systolic_latency_cycles

__all__ = [
    "Opcode",
    "Instruction",
    "InstructionImage",
    "assemble_inference",
    "assemble_training",
    "AcceleratorConfig",
    "SRAMBudget",
    "DRAMSpec",
    "MMUJob",
    "SIMDJob",
    "DRAMRequest",
    "StepProgram",
    "Program",
    "MatrixMultiplyUnit",
    "SIMDUnit",
    "HBMInterface",
    "OnChipBuffer",
    "SystolicArray",
    "systolic_latency_cycles",
    "lowered_conv_gemm",
    "Im2ColUnit",
]

__getattr__ = lazy_exports(__name__, {
    "OnChipBuffer": "repro.hw.buffers",
    "AcceleratorConfig": "repro.hw.config",
    "DRAMSpec": "repro.hw.config",
    "SRAMBudget": "repro.hw.config",
    "HBMInterface": "repro.hw.dram",
    "Im2ColUnit": "repro.hw.im2col",
    "lowered_conv_gemm": "repro.hw.im2col",
    "Instruction": "repro.hw.instructions",
    "InstructionImage": "repro.hw.instructions",
    "Opcode": "repro.hw.instructions",
    "assemble_inference": "repro.hw.instructions",
    "assemble_training": "repro.hw.instructions",
    "DRAMRequest": "repro.hw.isa",
    "MMUJob": "repro.hw.isa",
    "Program": "repro.hw.isa",
    "SIMDJob": "repro.hw.isa",
    "StepProgram": "repro.hw.isa",
    "MatrixMultiplyUnit": "repro.hw.mmu",
    "SIMDUnit": "repro.hw.simd",
    "SystolicArray": "repro.hw.systolic",
    "systolic_latency_cycles": "repro.hw.systolic",
})
