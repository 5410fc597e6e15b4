"""Arithmetic encodings used by Equinox datapaths.

The paper evaluates two datapath encodings:

* ``hbfp8`` — hybrid block floating point [Drumond et al., NeurIPS'18]:
  all matrix operands are blocks of 8-bit fixed-point mantissas sharing a
  single 12-bit exponent, multiplied with 8-bit multipliers and
  accumulated in 25-bit fixed point; non-GEMM (SIMD) work runs in
  bfloat16.
* ``bfloat16`` — the state-of-the-art reference for custom training
  accelerators, with fp32 accumulation.

This package provides functional implementations of both (plus plain
fixed point used by the inference-only baseline), a block-floating-point
tensor type, and quantized GEMM routines that the training substrate
(:mod:`repro.train`) and the functional systolic model
(:mod:`repro.hw.systolic`) consume.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.arith.gemm import gemm  # shadows its submodule, so eager

if TYPE_CHECKING:
    from repro.arith.bfloat16 import bfloat16_quantization_step, to_bfloat16
    from repro.arith.bfp import BFPFormat, BlockFloatTensor, quantize_bfp
    from repro.arith.fixed_point import FixedPointFormat, quantize_fixed_point
    from repro.arith.gemm import reference_gemm
    from repro.arith.hbfp import HBFP8, HBFPConfig, hbfp_gemm
    from repro.arith.types import ENCODINGS, Encoding, encoding_by_name

__all__ = [
    "Encoding",
    "ENCODINGS",
    "encoding_by_name",
    "to_bfloat16",
    "bfloat16_quantization_step",
    "quantize_fixed_point",
    "FixedPointFormat",
    "BlockFloatTensor",
    "quantize_bfp",
    "BFPFormat",
    "hbfp_gemm",
    "HBFP8",
    "HBFPConfig",
    "gemm",
    "reference_gemm",
]

__getattr__ = lazy_exports(__name__, {
    "bfloat16_quantization_step": "repro.arith.bfloat16",
    "to_bfloat16": "repro.arith.bfloat16",
    "BFPFormat": "repro.arith.bfp",
    "BlockFloatTensor": "repro.arith.bfp",
    "quantize_bfp": "repro.arith.bfp",
    "FixedPointFormat": "repro.arith.fixed_point",
    "quantize_fixed_point": "repro.arith.fixed_point",
    "reference_gemm": "repro.arith.gemm",
    "HBFP8": "repro.arith.hbfp",
    "HBFPConfig": "repro.arith.hbfp",
    "hbfp_gemm": "repro.arith.hbfp",
    "ENCODINGS": "repro.arith.types",
    "Encoding": "repro.arith.types",
    "encoding_by_name": "repro.arith.types",
})
