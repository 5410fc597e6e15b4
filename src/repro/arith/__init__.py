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
