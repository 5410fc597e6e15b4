"""Instruction-level view of compiled programs.

The accelerator's ISA (paper §3.1, detailed in the ColTraIn ISA the
paper cites) covers matrix multiplication, vector-vector operations,
activation/normalization, and data movement between DRAM, network
buffers and the datapath. The job-level models simulate timing; this
module materializes the *static* instruction image a service installs —
one instruction per tile position per layer, with a hardware repeat
counter for recurrent steps — so instruction-buffer residency (32 KB,
§5) can be checked and the front-end's decoder modeled.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from repro.hw.config import AcceleratorConfig
from repro.models.graph import ModelSpec


class Opcode(Enum):
    """Instruction classes of the custom ISA."""

    MATMUL_TILE = "matmul_tile"  # one activation tile × m weight tiles
    ACCUM_TILE = "accum_tile"  # add intermediate output tiles
    VECTOR_OP = "vector_op"  # SIMD: activations, gates, norms
    LOAD_WEIGHTS = "load_weights"  # DRAM/host -> weight buffer
    LOAD_ACTIVATIONS = "load_activations"  # DRAM/host -> activation buffer
    STORE_OUTPUT = "store_output"  # datapath -> DRAM/host
    LOOP = "loop"  # hardware repeat of an instruction block
    BARRIER = "barrier"  # dependency fence between steps


#: Fixed instruction width: opcode + three operand descriptors.
INSTRUCTION_BYTES = 16

#: Control signals the decoder raises per opcode (paper Figure 5: the
#: decoder generates datapath control signals; data movement decodes to
#: DRAM/host interface signals).
DECODE_TABLE: Dict[Opcode, Tuple[str, ...]] = {
    Opcode.MATMUL_TILE: ("mmu_issue", "act_buffer_read", "weight_buffer_read"),
    Opcode.ACCUM_TILE: ("mmu_accum", "act_buffer_write"),
    Opcode.VECTOR_OP: ("simd_issue", "rf_read", "act_buffer_write"),
    Opcode.LOAD_WEIGHTS: ("dram_read", "weight_buffer_write"),
    Opcode.LOAD_ACTIVATIONS: ("dram_read", "act_buffer_write"),
    Opcode.STORE_OUTPUT: ("act_buffer_read", "dram_write"),
    Opcode.LOOP: ("ctrl_loop",),
    Opcode.BARRIER: ("ctrl_fence",),
}


@dataclass(frozen=True)
class Instruction:
    """One static instruction."""

    opcode: Opcode
    operands: Tuple[int, ...] = ()

    def decode(self) -> Tuple[str, ...]:
        """Control signals this instruction raises."""
        return DECODE_TABLE[self.opcode]


@dataclass(frozen=True)
class InstructionImage:
    """The static instruction image of one installed service."""

    service: str
    instructions: List[Instruction]

    @property
    def count(self) -> int:
        return len(self.instructions)

    @property
    def bytes(self) -> int:
        return self.count * INSTRUCTION_BYTES


def _gemm_block(
    rows: int, k: int, n_out: int, config: AcceleratorConfig
) -> List[Instruction]:
    """The loop-compressed tile program of one GEMM.

    Hardware repeat counters cover the row-pass and column-group
    dimensions; only the K-tile chain (whose intermediate tiles must
    accumulate in order, Figure 4) is materialized as instructions.
    """
    row_passes = math.ceil(rows / config.n)
    k_tiles = math.ceil(k / config.tile_k)
    col_groups = math.ceil(n_out / config.column_group)
    block: List[Instruction] = []
    if row_passes > 1:
        block.append(Instruction(Opcode.LOOP, (row_passes,)))
    if col_groups > 1:
        block.append(Instruction(Opcode.LOOP, (col_groups,)))
    for kt in range(k_tiles):
        block.append(Instruction(Opcode.MATMUL_TILE, (kt,)))
    if k_tiles > 1:
        block.append(Instruction(Opcode.ACCUM_TILE, ()))
    return block


def assemble_inference(
    model: ModelSpec, config: AcceleratorConfig, batch: int = 0
) -> InstructionImage:
    """Static inference image: per layer, a loop-compressed tile block,
    one VECTOR_OP, and a step BARRIER; recurrent repeats are a hardware
    LOOP around the layer's block."""
    batch = batch or model.inference_batch(config.n)
    instructions: List[Instruction] = []
    for layer in model.layers:
        if layer.repeats > 1:
            instructions.append(Instruction(Opcode.LOOP, (layer.repeats,)))
        instructions.extend(
            _gemm_block(batch * layer.rows_per_sample, layer.k, layer.n_out, config)
        )
        if layer.simd_ops_per_sample > 0:
            instructions.append(Instruction(Opcode.VECTOR_OP, ()))
        instructions.append(Instruction(Opcode.BARRIER, ()))
    return InstructionImage(service="inference", instructions=instructions)


def assemble_training(
    model: ModelSpec, config: AcceleratorConfig, batch: int = 128
) -> InstructionImage:
    """Static training image: the inference skeleton plus weight
    streaming, activation stashes and gradient movement. Training
    contexts bypass batch formation (paper §3.2) but reuse the same
    ISA; the image is what the host installs once per training
    service."""
    instructions: List[Instruction] = []
    for transpose in (False, True):  # forward, then input gradients
        for layer in model.layers:
            rows = batch * layer.rows_per_sample
            k = layer.n_out if transpose else layer.k
            n_out = layer.k if transpose else layer.n_out
            if layer.repeats > 1:
                instructions.append(Instruction(Opcode.LOOP, (layer.repeats,)))
            instructions.append(Instruction(Opcode.LOAD_WEIGHTS, ()))
            instructions.extend(_gemm_block(rows, k, n_out, config))
            instructions.append(Instruction(Opcode.VECTOR_OP, ()))
            instructions.append(Instruction(Opcode.STORE_OUTPUT, ()))
            instructions.append(Instruction(Opcode.BARRIER, ()))
    # Weight-gradient pass (sequence-concatenated K) + parameter-server
    # exchange.
    for layer in reversed(model.layers):
        instructions.append(Instruction(Opcode.LOAD_ACTIVATIONS, ()))
        reduce_dim = batch * layer.rows_per_sample * layer.repeats
        instructions.extend(
            _gemm_block(layer.k, reduce_dim, layer.n_out, config)
        )
        instructions.append(Instruction(Opcode.STORE_OUTPUT, ()))
        instructions.append(Instruction(Opcode.BARRIER, ()))
    instructions.append(Instruction(Opcode.STORE_OUTPUT, ()))  # grads out
    # The parameter-server round trip is a dependency fence: gradients
    # must ship before the refreshed model streams back.
    instructions.append(Instruction(Opcode.BARRIER, ()))
    instructions.append(Instruction(Opcode.LOAD_WEIGHTS, ()))  # fresh model
    return InstructionImage(service="training", instructions=instructions)
