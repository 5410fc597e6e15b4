"""Block floating point (BFP) tensors.

A BFP tensor partitions a 2-D array into tiles; all values in a tile are
stored as signed fixed-point mantissas sharing a single exponent (the
tile maximum's exponent). This is the storage format of Equinox's hbfp8
datapath: 8-bit mantissas, a 12-bit exponent per tile, and tile-tile
matrix multiplication performed as an integer GEMM plus an exponent add
(paper §3.2).

Quantization and the tile GEMM live in :mod:`repro.kernels` as
reference/fast implementation pairs; the entry points here validate
arguments and dispatch. :func:`repro.kernels.use_backend` picks the
pair member for a scope (the two are bit-identical by contract, so it
only changes speed). Decoding has one implementation,
:func:`decode_tiles`, shared with the fast GEMM.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BFPFormat:
    """Shape of a block-floating-point encoding.

    Attributes:
        mantissa_bits: Signed mantissa width (8 for hbfp8).
        exponent_bits: Shared exponent width (12 in the paper, enough to
            never saturate in practice; exponents are clamped to this
            range on encode).
        block_rows: Tile height.
        block_cols: Tile width.
    """

    mantissa_bits: int = 8
    exponent_bits: int = 12
    block_rows: int = 16
    block_cols: int = 16

    def __post_init__(self) -> None:
        if self.mantissa_bits < 2:
            raise ValueError("mantissa needs at least 2 bits")
        if self.exponent_bits < 1:
            raise ValueError("shared exponent needs at least 1 bit")
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError("block dimensions must be positive")

    # Derived range constants, computed once per format instance
    # (kernels read these per call; cached_property writes through the
    # frozen dataclass's __dict__ on first access).

    @cached_property
    def exponent_min(self) -> int:
        return -(2 ** (self.exponent_bits - 1))

    @cached_property
    def exponent_max(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    @cached_property
    def mantissa_min(self) -> int:
        return -(2 ** (self.mantissa_bits - 1))

    @cached_property
    def mantissa_max(self) -> int:
        return 2 ** (self.mantissa_bits - 1) - 1


BFP8 = BFPFormat(mantissa_bits=8, exponent_bits=12)


def decode_tiles(
    mantissas: np.ndarray, exponents: np.ndarray, fmt: BFPFormat
) -> np.ndarray:
    """Padded float64 values of BFP tiles: ``mantissa × 2^(e − (m − 1))``
    per tile (exact unless out of float64's range)."""
    br, bc = fmt.block_rows, fmt.block_cols
    pad_rows, pad_cols = mantissas.shape
    scale = np.ldexp(1.0, exponents - (fmt.mantissa_bits - 1))
    tiles = mantissas.reshape(pad_rows // br, br, pad_cols // bc, bc)
    return (tiles * scale[:, None, :, None]).reshape(pad_rows, pad_cols)


class BlockFloatTensor:
    """A 2-D tensor stored in block floating point.

    The tensor is padded up to whole tiles internally; ``shape`` reports
    the logical (unpadded) shape and :meth:`to_float` returns the
    unpadded decode.

    Attributes:
        fmt: The :class:`BFPFormat` in force.
        mantissas: Integer mantissas with padded shape, dtype int32.
        exponents: Per-tile exponents, shape
            ``(rows/block_rows, cols/block_cols)``, dtype int32.
    """

    def __init__(
        self,
        fmt: BFPFormat,
        mantissas: np.ndarray,
        exponents: np.ndarray,
        logical_shape: tuple,
    ):
        self.fmt = fmt
        self.mantissas = mantissas
        self.exponents = exponents
        self._logical_shape = tuple(logical_shape)

    @property
    def shape(self) -> tuple:
        return self._logical_shape

    @property
    def tile_grid(self) -> tuple:
        """Number of tiles along each axis."""
        return self.exponents.shape

    @property
    def T(self) -> "BlockFloatTensor":
        """The transpose, as views of the same mantissas and exponents.

        Quantizing ``x.T`` gives exactly this tensor: each tile of the
        transpose holds the same values, so it gets the same exponent
        and the same (elementwise) rounding — for square tiles under
        the same format, otherwise under the one with tile sides
        swapped.
        """
        fmt = self.fmt
        if fmt.block_rows != fmt.block_cols:
            fmt = replace(fmt, block_rows=fmt.block_cols, block_cols=fmt.block_rows)
        return BlockFloatTensor(
            fmt, self.mantissas.T, self.exponents.T, self._logical_shape[::-1]
        )

    @classmethod
    def from_float(
        cls,
        values: np.ndarray,
        fmt: BFPFormat = BFP8,
        rounding: str = "nearest",
        rng: "np.random.Generator | None" = None,
    ) -> "BlockFloatTensor":
        """Quantize a float array into BFP.

        For each tile the shared exponent is chosen so the tile maximum
        maps into (0.5, 1] before mantissa scaling; mantissas are
        rounded and clipped to the signed range. All-zero tiles use the
        minimum exponent.

        Args:
            values: 2-D float array.
            fmt: Block format.
            rounding: ``"nearest"`` (datapath converters) or
                ``"stochastic"`` — the unbiased rounding HBFP training
                uses on the weight-update path so that sub-LSB updates
                survive in expectation.
            rng: Randomness source, required for stochastic rounding
                so that equal calls give equal mantissas. Both kernel
                backends consume the stream identically.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"BFP tensors are 2-D, got shape {x.shape}")
        if rounding not in ("nearest", "stochastic"):
            raise ValueError(f"unknown rounding mode {rounding!r}")
        if rounding == "stochastic" and rng is None:
            raise ValueError("stochastic rounding needs an rng")
        from repro import kernels

        quantize = kernels.dispatch("bfp.quantize")
        mantissas, exponents, logical_shape = quantize(
            x, fmt, rounding=rounding, rng=rng
        )
        return cls(fmt, mantissas, exponents, logical_shape)

    def to_float(self) -> np.ndarray:
        """Decode back to float32 (logical shape, padding stripped)."""
        rows, cols = self._logical_shape
        decoded = decode_tiles(self.mantissas, self.exponents, self.fmt)
        return decoded[:rows, :cols].astype(np.float32)

    def storage_bits(self) -> int:
        """Total storage footprint in bits (mantissas + shared exponents)."""
        n_tiles = self.exponents.size
        return (
            self.mantissas.size * self.fmt.mantissa_bits
            + n_tiles * self.fmt.exponent_bits
        )


def quantize_bfp(values: np.ndarray, fmt: BFPFormat = BFP8) -> np.ndarray:
    """Round-trip a float array through BFP (quantize-dequantize)."""
    return BlockFloatTensor.from_float(values, fmt).to_float()


def bfp_matmul(
    a: BlockFloatTensor,
    b: BlockFloatTensor,
    accumulator_bits: int = 25,
) -> np.ndarray:
    """Multiply two BFP tensors the way Equinox's systolic arrays do.

    Each tile-pair product is an integer GEMM (8-bit multipliers feeding
    ``accumulator_bits``-wide accumulators, saturating) whose scale is
    the sum of the two tile exponents; partial tiles are accumulated
    across the K dimension in float, modeling the fp32/bfloat16
    accumulation after the exponent-synchronizing FIFO (paper §3.2).

    Requires ``a.fmt.block_cols == b.fmt.block_rows`` so tiles align
    along the reduction dimension, and one mantissa width on both sides
    (each tile product is scaled by ``2^(e_a + e_b − 2(m − 1))``).

    Returns the float32 product with logical shape (a.rows, b.cols).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.fmt.block_cols != b.fmt.block_rows:
        raise ValueError("tile reduction dimensions must align")
    if a.fmt.mantissa_bits != b.fmt.mantissa_bits:
        raise ValueError(
            f"mantissa widths differ: {a.fmt.mantissa_bits} @ "
            f"{b.fmt.mantissa_bits} bits"
        )
    from repro import kernels

    matmul = kernels.dispatch("bfp.matmul")
    return matmul(
        a.mantissas,
        a.exponents,
        b.mantissas,
        b.exponents,
        a.fmt,
        b.fmt,
        a.shape[0],
        b.shape[1],
        accumulator_bits=accumulator_bits,
    )
