"""Hybrid block floating point (HBFP) arithmetic.

HBFP [Drumond et al., NeurIPS'18] performs all GEMMs in block floating
point (dense, fixed-point-like hardware) while keeping everything else —
activations between layers, loss, optimizer state, master weights — in
wider floating point. Equinox's hbfp8 datapath converts GEMM outputs to
bfloat16 for the SIMD unit and back to BFP for the next GEMM (paper
§3.2); this module reproduces exactly that numerical pipeline so the
training substrate exercises the datapath's real arithmetic.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.arith.bfp import BFPFormat, BlockFloatTensor, bfp_matmul
from repro.arith.bfloat16 import to_bfloat16


@dataclass(frozen=True)
class HBFPConfig:
    """Configuration for an HBFP GEMM pipeline.

    Attributes:
        bfp: Block format of every GEMM operand. Its tiles must be
            square, so a tensor's transpose is stored in the same
            format and one encoding serves both sides of a product.
        accumulator_bits: Systolic-array accumulator width.
        simd_in_bfloat16: Whether GEMM outputs are rounded to bfloat16
            (as they are on their way to Equinox's SIMD unit).
    """

    bfp: BFPFormat = field(default_factory=BFPFormat)
    accumulator_bits: int = 25
    simd_in_bfloat16: bool = True

    def __post_init__(self) -> None:
        if self.bfp.block_rows != self.bfp.block_cols:
            raise ValueError(
                f"HBFP needs square tiles, got "
                f"{self.bfp.block_rows}x{self.bfp.block_cols}"
            )


#: The paper's hbfp8 operating point: 8-bit mantissas, 12-bit shared
#: exponents, 25-bit accumulators, bfloat16 SIMD.
HBFP8 = HBFPConfig()


def hbfp_multiply(
    a: BlockFloatTensor,
    b: BlockFloatTensor,
    config: HBFPConfig = HBFP8,
    backend: "str | None" = None,
) -> np.ndarray:
    """Multiply two BFP-encoded operands through the HBFP datapath.

    Integer tile GEMMs in ``config.accumulator_bits``-wide accumulators,
    then the bfloat16 SIMD hand-off when the config asks for it.
    """
    out = bfp_matmul(
        a, b, accumulator_bits=config.accumulator_bits, backend=backend
    )
    if config.simd_in_bfloat16:
        out = to_bfloat16(out)
    return out


def hbfp_gemm(
    a: np.ndarray,
    b: np.ndarray,
    config: HBFPConfig = HBFP8,
    backend: "str | None" = None,
) -> np.ndarray:
    """Compute ``a @ b`` through the HBFP datapath.

    Both operands are quantized to ``config.bfp`` and multiplied with
    :func:`hbfp_multiply`. ``backend`` pins the kernel backend for all
    three steps (``None`` = ambient).
    """
    return hbfp_multiply(
        BlockFloatTensor.from_float(a, config.bfp, backend=backend),
        BlockFloatTensor.from_float(b, config.bfp, backend=backend),
        config,
        backend=backend,
    )


def hbfp_quantization_noise(
    values: np.ndarray, config: HBFPConfig = HBFP8
) -> float:
    """RMS relative quantization noise of a round trip through BFP.

    Useful to sanity-check that hbfp8 keeps roughly 2 decimal digits of
    per-tile dynamic range, the property that lets SGD converge.
    """
    x = np.asarray(values, dtype=np.float64)
    decoded = BlockFloatTensor.from_float(x, config.bfp).to_float()
    scale = np.abs(x).max()
    if scale == 0:
        return 0.0
    return float(np.sqrt(np.mean((decoded - x) ** 2)) / scale)
