"""HBFP GEMM pipeline."""

import numpy as np
import pytest

from repro.arith.bfp import BFPFormat
from repro.arith.hbfp import HBFP8, HBFPConfig, hbfp_gemm, hbfp_quantization_noise


class TestHBFPGemm:
    def _operands(self, m=16, k=32, n=8, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((m, k)).astype(np.float32),
            (rng.standard_normal((k, n)) * 0.2).astype(np.float32),
        )

    def test_close_to_fp32(self):
        a, b = self._operands()
        out = hbfp_gemm(a, b)
        exact = a @ b
        assert np.abs(out - exact).max() / np.abs(exact).max() < 0.05

    def test_output_is_bfloat16_grid(self):
        from repro.arith.bfloat16 import to_bfloat16

        a, b = self._operands(seed=3)
        out = hbfp_gemm(a, b)
        np.testing.assert_array_equal(out, to_bfloat16(out))

    def test_simd_rounding_can_be_disabled(self):
        a, b = self._operands(seed=4)
        config = HBFPConfig(simd_in_bfloat16=False)
        raw = hbfp_gemm(a, b, config)
        rounded = hbfp_gemm(a, b)
        # Same BFP products, different final rounding.
        assert np.abs(raw - rounded).max() <= np.abs(raw).max() / 64

    def test_handles_non_tile_multiple_shapes(self):
        a, b = self._operands(m=5, k=19, n=3, seed=1)
        assert hbfp_gemm(a, b).shape == (5, 3)

    def test_custom_block_size(self):
        a, b = self._operands(seed=2)
        config = HBFPConfig(bfp=BFPFormat(block_rows=4, block_cols=4))
        out = hbfp_gemm(a, b, config)
        exact = a @ b
        # Smaller tiles -> tighter exponents -> at least as accurate.
        assert np.abs(out - exact).max() / np.abs(exact).max() < 0.05

    def test_rejects_non_square_tiles(self):
        with pytest.raises(ValueError, match="square"):
            HBFPConfig(bfp=BFPFormat(block_rows=4, block_cols=8))

    def test_default_config_is_paper_operating_point(self):
        assert HBFP8.bfp.mantissa_bits == 8
        assert HBFP8.bfp.exponent_bits == 12
        assert HBFP8.accumulator_bits == 25
        assert HBFP8.simd_in_bfloat16


class TestQuantizationNoise:
    def test_zero_for_zero_input(self):
        assert hbfp_quantization_noise(np.zeros((8, 8))) == 0.0

    def test_small_for_uniform_scale_data(self):
        x = np.random.default_rng(0).standard_normal((64, 64))
        assert hbfp_quantization_noise(x) < 0.01

    def test_within_tile_outliers_degrade_small_values(self):
        from repro.arith.bfp import quantize_bfp

        flat = np.full((16, 16), 0.5, dtype=np.float32)
        spiky = flat.copy()
        spiky[0, 0] = 1000.0  # shares a tile exponent with the 0.5s
        err_flat = np.abs(quantize_bfp(flat)[1:, 1:] - 0.5).max()
        err_spiky = np.abs(quantize_bfp(spiky)[1:, 1:] - 0.5).max()
        assert err_spiky > err_flat

    def test_noise_is_relative(self):
        x = np.random.default_rng(2).standard_normal((32, 32))
        a = hbfp_quantization_noise(x)
        b = hbfp_quantization_noise(x * 1000.0)
        assert a == pytest.approx(b, rel=0.2)
