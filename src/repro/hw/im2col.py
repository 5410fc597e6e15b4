"""im2col unit: lowering convolutions to matrix multiplication.

The accelerator's im2col block (paper Figure 3) turns a convolution
into a GEMM whose activation matrix has one row per output spatial
position and one column per (kernel position × input channel). This
module provides both the shape math the compiler needs to tile lowered
convolutions (ResNet50, Table 2) and a functional lowering that tests
check against direct convolution.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ConvShape:
    """A 2-D convolution layer's geometry."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    in_height: int = 1
    in_width: int = 1

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ValueError(f"invalid conv shape: {self}")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")

    @property
    def out_height(self) -> int:
        return (self.in_height + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def output_positions(self) -> int:
        return self.out_height * self.out_width


def lowered_conv_gemm(shape: ConvShape, batch: int = 1) -> Tuple[int, int, int]:
    """GEMM (M, K, N) of the lowered convolution.

    M = batch × output positions, K = kernel² × input channels,
    N = output channels. These matrices have a large height relative to
    their length, so the MMU processes them in its weight-broadcast mode
    (paper §4) with plenty of activation reuse.
    """
    m = batch * shape.output_positions
    k = shape.kernel * shape.kernel * shape.in_channels
    n = shape.out_channels
    return m, k, n


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Functional im2col for NCHW input.

    One strided slice per (ky, kx) kernel offset, gathered into the
    lowered activation matrix.

    Args:
        images: Input of shape (batch, channels, height, width).
        kernel: Square kernel size.
        stride: Convolution stride.
        padding: Zero padding on each spatial edge.

    Returns:
        Matrix of shape (batch × out_h × out_w, kernel² × channels),
        row-major over (batch, out_y, out_x).
    """
    x = np.asarray(images, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {x.shape}")
    if kernel < 1 or stride < 1:
        raise ValueError(
            f"kernel and stride must be >= 1, got {kernel} and {stride}"
        )
    if padding < 0:
        raise ValueError("padding must be non-negative")
    b, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("kernel does not fit in the padded input")
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    cols = np.empty((b, out_h, out_w, c, kernel, kernel), dtype=np.float32)
    for ky in range(kernel):
        for kx in range(kernel):
            patch = x[
                :,
                :,
                ky : ky + stride * out_h : stride,
                kx : kx + stride * out_w : stride,
            ]
            cols[:, :, :, :, ky, kx] = patch.transpose(0, 2, 3, 1)
    return cols.reshape(b * out_h * out_w, c * kernel * kernel)


class Im2ColUnit:
    """Timing wrapper: lowering happens at buffer-read rate.

    The im2col unit streams patches at the activation-buffer read port
    rate, fully overlapped with MMU issue, so it adds no serialized
    cycles (it only appears in the area/power budget). The method here
    reports the bytes it touches for bandwidth accounting.
    """

    def __init__(self, operand_bytes: float = 1.0):
        self.operand_bytes = operand_bytes

    def lowering_bytes(self, shape: ConvShape, batch: int = 1) -> float:
        m, k, _ = lowered_conv_gemm(shape, batch)
        return float(m) * float(k) * self.operand_bytes
