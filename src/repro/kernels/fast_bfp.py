"""Fast block-floating-point kernels — bit-identical to the reference.

Same semantics as :mod:`repro.kernels.ref_bfp`, engineered for speed:

* ``matmul`` multiplies the decoded float64 operands (``mantissa ×
  2^(e − (m − 1))`` per tile) as one GEMM wherever
  :func:`_one_gemm_is_exact` proves from the tile exponents that every
  partial sum is exact, so that any BLAS summation order equals the
  reference's ascending-K tile sum bit for bit; other inputs run the
  reference loop.
* ``quantize`` skips the padding copy when the shape is tile-aligned,
  folds tile maxima over the rows of each tile band before the small
  fold over columns (2–3× cheaper than ``max(axis=(1, 3))``), and
  rounds and clamps in place. ``np.rint`` equals ``np.round`` for whole
  numbers and ``np.ldexp`` equals ``np.exp2`` for powers of two. The
  stochastic path consumes exactly one ``rng.random(padded_tile_shape)``
  draw, as the reference does, leaving the RNG stream in the same place.

Do not import this module outside ``repro.kernels`` and tests — call
sites go through :func:`repro.kernels.dispatch` (lint rule EQX308).
"""

from typing import Optional, Tuple

import numpy as np

from repro.arith.bfp import decode_tiles
from repro.kernels import ref_bfp

__all__ = ["quantize", "matmul"]

def quantize(
    values: np.ndarray,
    fmt,
    rounding: str = "nearest",
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Vectorized BFP quantization; see ``ref_bfp.quantize``."""
    x = np.asarray(values, dtype=np.float64)
    rows, cols = x.shape
    br, bc = fmt.block_rows, fmt.block_cols
    grid_r, grid_c = -(-rows // br), -(-cols // bc)
    if grid_r * br == rows and grid_c * bc == cols:
        padded = x  # tile-aligned: no padding copy needed (read-only use)
    else:
        padded = np.zeros((grid_r * br, grid_c * bc))
        padded[:rows, :cols] = x

    # Tile maxima: fold each band of tile rows elementwise first (long
    # contiguous inner loops), then the tile columns of the small result.
    bands = np.abs(padded).reshape(grid_r, br, grid_c * bc)
    max_abs = bands.max(axis=1).reshape(grid_r, grid_c, bc).max(axis=2)
    nonzero = max_abs > 0
    log2 = np.full(max_abs.shape, float(fmt.exponent_min))
    np.log2(max_abs, out=log2, where=nonzero)
    exponents = np.ceil(log2, out=log2).astype(np.int32)
    np.maximum(exponents, fmt.exponent_min, out=exponents)
    np.minimum(exponents, fmt.exponent_max, out=exponents)

    # All-zero tiles divide by 1.0: their minimum-exponent scale can
    # underflow to 0.0.
    scale = np.ones(max_abs.shape)
    np.ldexp(scale, exponents - (fmt.mantissa_bits - 1), out=scale, where=nonzero)
    scaled = padded.reshape(grid_r, br, grid_c, bc) / scale[:, None, :, None]
    if rounding == "stochastic":
        assert rng is not None  # from_float requires one
        mant = np.floor(scaled)
        scaled -= mant  # the fractional parts
        mant += rng.random(scaled.shape) < scaled
    else:
        mant = np.rint(scaled, out=scaled)
    np.maximum(mant, fmt.mantissa_min, out=mant)
    mantissas = np.empty((grid_r * br, grid_c * bc), dtype=np.int32)
    np.minimum(
        mant.reshape(mantissas.shape), fmt.mantissa_max,
        out=mantissas, casting="unsafe",
    )
    return mantissas, exponents, (rows, cols)


def _span(exponents: np.ndarray, fmt) -> Tuple[int, int]:
    """(lowest, highest) exponent of the tiles that may be nonzero
    (lowest > highest if none may). With 12 or more exponent bits,
    ``exponent_min`` lies below float64's 2^-1074, so quantize gives it
    to all-zero tiles and only to them; they decode to 0.0."""
    if not exponents.size:
        return 0, -1
    lo, hi = int(exponents.min()), int(exponents.max())
    if lo == fmt.exponent_min < -1074:
        nonzero = exponents[exponents != lo]
        lo = int(nonzero.min()) if nonzero.size else hi + 1
    return lo, hi


def _one_gemm_is_exact(a_exp, b_exp, a_fmt, b_fmt, accumulator_bits) -> bool:
    """Whether one float64 GEMM of the decoded operands equals the
    reference's tile sum bit for bit (argued in DESIGN.md, "Kernel
    backends"): no tile product saturates, every nonzero product lies
    on one 53-bit grid, and nothing leaves float64's range. Both
    operands share one mantissa width (``bfp_matmul`` checks it)."""
    shift = a_fmt.mantissa_bits - 1
    if a_fmt.block_cols * 4**shift > 2 ** (accumulator_bits - 1) - 1:
        return False
    (a_lo, a_hi), (b_lo, b_hi) = _span(a_exp, a_fmt), _span(b_exp, b_fmt)
    if a_lo > a_hi or b_lo > b_hi:  # an all-zero operand: so is the product
        return max(a_hi, b_hi) <= 1023
    k_bits = (a_exp.shape[1] * a_fmt.block_cols).bit_length()
    return (
        k_bits + 2 * shift + (a_hi - a_lo) + (b_hi - b_lo) <= 53
        and min(a_lo, b_lo, a_lo + b_lo - shift) - shift >= -1074
        and max(a_hi, b_hi) <= 1023
        and k_bits + a_hi + b_hi <= 1024
    )


def matmul(
    a_mant: np.ndarray,
    a_exp: np.ndarray,
    b_mant: np.ndarray,
    b_exp: np.ndarray,
    a_fmt,
    b_fmt,
    logical_rows: int,
    logical_cols: int,
    accumulator_bits: int = 25,
) -> np.ndarray:
    """One-GEMM BFP matmul; see ``ref_bfp.matmul``. Inputs that fail
    :func:`_one_gemm_is_exact` run the reference loop."""
    if a_exp.shape[1] != b_exp.shape[0]:
        raise ValueError("tile grids do not align along K")
    if not _one_gemm_is_exact(a_exp, b_exp, a_fmt, b_fmt, accumulator_bits):
        return ref_bfp.matmul(
            a_mant, a_exp, b_mant, b_exp, a_fmt, b_fmt,
            logical_rows, logical_cols, accumulator_bits=accumulator_bits,
        )
    a = decode_tiles(a_mant, a_exp, a_fmt)[:logical_rows]
    b = decode_tiles(b_mant, b_exp, b_fmt)[:, :logical_cols]
    product = np.matmul(a, b)
    # Adding +0.0 turns -0.0, which a GEMM can return for all -0.0
    # products, into the +0.0 the reference (summing from +0.0) gives.
    out = np.empty((logical_rows, logical_cols), dtype=np.float32)
    return np.add(product, 0.0, out=out, casting="same_kind")
