"""im2col lowering: functional correctness and GEMM shapes."""

import numpy as np
import pytest

from repro.hw.im2col import ConvShape, Im2ColUnit, im2col, lowered_conv_gemm


def _reference_conv(images, kernels, stride, padding):
    """Direct convolution for cross-checking the lowered GEMM."""
    b, c, h, w = images.shape
    out_c, _, k, _ = kernels.shape
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.zeros((b, out_c, out_h, out_w), dtype=np.float32)
    for y in range(out_h):
        for x in range(out_w):
            patch = padded[
                :, :, y * stride : y * stride + k, x * stride : x * stride + k
            ]
            out[:, :, y, x] = np.einsum("bcij,ocij->bo", patch, kernels)
    return out


class TestConvShape:
    def test_output_dimensions(self):
        shape = ConvShape(
            in_channels=3, out_channels=8, kernel=3, stride=2, padding=1,
            in_height=8, in_width=8,
        )
        assert shape.out_height == 4
        assert shape.out_width == 4
        assert shape.output_positions == 16

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ConvShape(in_channels=0, out_channels=1, kernel=1)

    def test_gemm_shape(self):
        shape = ConvShape(
            in_channels=16, out_channels=32, kernel=3, stride=1, padding=1,
            in_height=8, in_width=8,
        )
        m, k, n = lowered_conv_gemm(shape, batch=4)
        assert m == 4 * 64
        assert k == 9 * 16
        assert n == 32


class TestIm2ColFunctional:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            pytest.param((2, 3, 7, 7), 3, 1, 0, id="1-0"),
            pytest.param((2, 3, 7, 7), 3, 1, 1, id="1-1"),
            pytest.param((2, 3, 7, 7), 3, 2, 1, id="2-1"),
            pytest.param((1, 1, 1, 1), 1, 1, 0, id="1x1-input"),
            pytest.param((1, 2, 7, 5), 3, 2, 0, id="stride2-7x5"),
            pytest.param((1, 1, 4, 4), 3, 1, 2, id="padding2-4x4"),
            pytest.param((2, 2, 6, 6), 2, 2, 1, id="2x2-kernel-stride2"),
        ],
    )
    def test_lowered_gemm_equals_convolution(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        b, c = shape[:2]
        images = rng.standard_normal(shape).astype(np.float32)
        kernels = rng.standard_normal((5, c, kernel, kernel)).astype(np.float32)
        cols = im2col(images, kernel=kernel, stride=stride, padding=padding)
        flat_k = kernels.reshape(5, -1).T  # (k²·C, out_c) matching cols
        lowered = cols @ flat_k
        reference = _reference_conv(images, kernels, stride, padding)
        out_h = reference.shape[2]
        out_w = reference.shape[3]
        lowered = lowered.reshape(b, out_h, out_w, 5).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(lowered, reference, rtol=1e-4, atol=1e-4)

    def test_rejects_non_nchw(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((3, 7, 7)), kernel=3)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 4, 4)), kernel=9)

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(0, 1, 0), (-1, 1, 0), (3, 0, 0), (3, -2, 0),
                                  (3, 1, -1)],
    )
    def test_rejects_invalid_geometry(self, kernel, stride, padding):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 4, 4)), kernel, stride, padding)

    def test_row_count(self):
        cols = im2col(np.zeros((2, 3, 6, 6)), kernel=3, stride=1, padding=0)
        assert cols.shape == (2 * 16, 27)


class TestIm2ColUnit:
    def test_lowering_bytes(self):
        shape = ConvShape(
            in_channels=4, out_channels=8, kernel=3, in_height=6, in_width=6,
        )
        unit = Im2ColUnit(operand_bytes=1.0)
        m, k, _ = lowered_conv_gemm(shape, batch=2)
        assert unit.lowering_bytes(shape, batch=2) == pytest.approx(m * k)
