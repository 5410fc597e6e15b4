"""Block floating point tensors and tile matrix multiplication."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.bfp import BFPFormat, BlockFloatTensor, bfp_matmul, quantize_bfp


def small_arrays(max_dim=24):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(0, 2**31 - 1)
    ).map(
        lambda t: np.random.default_rng(t[2]).standard_normal((t[0], t[1])).astype(
            np.float32
        )
    )


class TestBFPFormat:
    def test_default_is_hbfp8_shape(self):
        fmt = BFPFormat()
        assert fmt.mantissa_bits == 8
        assert fmt.exponent_bits == 12

    def test_mantissa_range(self):
        fmt = BFPFormat(mantissa_bits=8)
        assert fmt.mantissa_min == -128
        assert fmt.mantissa_max == 127

    def test_rejects_tiny_mantissa(self):
        with pytest.raises(ValueError):
            BFPFormat(mantissa_bits=1)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            BFPFormat(block_rows=0)

    @pytest.mark.parametrize("exponent_bits", [0, -3])
    def test_rejects_exponent_without_bits(self, exponent_bits):
        with pytest.raises(ValueError):
            BFPFormat(exponent_bits=exponent_bits)


class TestEncodeDecode:
    def test_zero_tensor_roundtrips_exactly(self):
        x = np.zeros((8, 8), dtype=np.float32)
        np.testing.assert_array_equal(quantize_bfp(x), x)

    def test_power_of_two_values_nearly_exact(self):
        x = np.full((4, 4), 0.5, dtype=np.float32)
        out = quantize_bfp(x, BFPFormat(block_rows=4, block_cols=4))
        # The tile max is a power of two; it may clip by one LSB.
        np.testing.assert_allclose(out, x, rtol=1 / 127)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            BlockFloatTensor.from_float(np.zeros(5))

    def test_logical_shape_preserved_with_padding(self):
        x = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
        bfp = BlockFloatTensor.from_float(x, BFPFormat(block_rows=4, block_cols=4))
        assert bfp.shape == (5, 7)
        assert bfp.to_float().shape == (5, 7)

    @pytest.mark.parametrize("shape", [(5, 7), (17, 23), (33, 18), (16, 48)])
    @pytest.mark.parametrize(
        "fmt", [BFPFormat(), BFPFormat(block_rows=4, block_cols=4),
                BFPFormat(mantissa_bits=5, block_rows=3, block_cols=2)],
        ids=["16x16", "4x4", "3x2"],
    )
    def test_transpose_equals_quantized_transpose(self, shape, fmt):
        x = np.random.default_rng(9).standard_normal(shape)
        x[: shape[0] // 2] = 0.0  # whole tiles of zeros
        x[:, -1] *= 1e3  # tiles of very different scale
        t = BlockFloatTensor.from_float(x, fmt).T
        direct = BlockFloatTensor.from_float(
            x.T, BFPFormat(fmt.mantissa_bits, fmt.exponent_bits,
                           fmt.block_cols, fmt.block_rows),
        )
        assert t.shape == direct.shape == shape[::-1]
        assert t.fmt == direct.fmt
        np.testing.assert_array_equal(t.mantissas, direct.mantissas)
        np.testing.assert_array_equal(t.exponents, direct.exponents)
        np.testing.assert_array_equal(t.to_float(), direct.to_float())

    @pytest.mark.parametrize(
        "fmt, shape, kind",
        [
            (BFPFormat(mantissa_bits=4, exponent_bits=6, block_rows=1,
                       block_cols=1), (7, 5), "gaussian"),
            (BFPFormat(mantissa_bits=5, exponent_bits=8, block_rows=3,
                       block_cols=2), (10, 9), "gaussian"),
            (BFPFormat(), (33, 18), "zeros"),
            (BFPFormat(), (37, 21), "zero-tiles"),
            (BFPFormat(mantissa_bits=5, exponent_bits=8, block_rows=3,
                       block_cols=2), (20, 12), "tiny"),
            (BFPFormat(mantissa_bits=5, exponent_bits=8, block_rows=3,
                       block_cols=2), (20, 12), "huge"),
        ],
        ids=["unit-blocks", "odd-blocks", "all-zero", "zero-tiles", "tiny",
             "huge"],
    )
    def test_to_float_round_trip(self, fmt, shape, kind):
        """Decoding is exact (each value is its mantissa times its
        tile's scale, padding stripped) and within one LSB of the input.
        The tiny case sits below the 8-bit exponent range, so its
        exponents clamp at the minimum."""
        x = np.random.default_rng(4).standard_normal(shape)
        if kind == "zeros":
            x[:] = 0.0
        elif kind == "zero-tiles":
            x[: shape[0] // 2] = 0.0
        elif kind == "tiny":
            x *= 1e-40
        elif kind == "huge":
            x *= 1e30
        bfp = BlockFloatTensor.from_float(x, fmt)
        decoded = bfp.to_float()
        assert decoded.dtype == np.float32 and decoded.shape == shape
        exponents = np.repeat(
            np.repeat(bfp.exponents, fmt.block_rows, 0), fmt.block_cols, 1
        )[: shape[0], : shape[1]]
        lsb = np.ldexp(1.0, exponents - (fmt.mantissa_bits - 1))
        mantissas = bfp.mantissas[: shape[0], : shape[1]]
        np.testing.assert_array_equal(decoded, (mantissas * lsb).astype(np.float32))
        assert np.all(np.abs(decoded - x) <= lsb)
        assert np.all(decoded[x == 0.0] == 0.0)

    def test_tile_grid_dimensions(self):
        x = np.zeros((9, 5), dtype=np.float32)
        bfp = BlockFloatTensor.from_float(x, BFPFormat(block_rows=4, block_cols=4))
        assert bfp.tile_grid == (3, 2)

    def test_mantissas_within_signed_range(self):
        x = np.random.default_rng(1).standard_normal((16, 16)) * 100
        bfp = BlockFloatTensor.from_float(x)
        assert bfp.mantissas.max() <= bfp.fmt.mantissa_max
        assert bfp.mantissas.min() >= bfp.fmt.mantissa_min

    def test_per_tile_exponents_track_magnitude(self):
        fmt = BFPFormat(block_rows=4, block_cols=4)
        x = np.ones((8, 4), dtype=np.float32)
        x[4:] *= 1024.0  # second tile row is much larger
        bfp = BlockFloatTensor.from_float(x, fmt)
        assert bfp.exponents[1, 0] == bfp.exponents[0, 0] + 10

    def test_storage_bits_accounts_exponents(self):
        fmt = BFPFormat(mantissa_bits=8, exponent_bits=12, block_rows=4, block_cols=4)
        x = np.zeros((4, 4), dtype=np.float32)
        bfp = BlockFloatTensor.from_float(x, fmt)
        assert bfp.storage_bits() == 16 * 8 + 12

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_relative_error_bounded_per_tile(self, x):
        fmt = BFPFormat(block_rows=8, block_cols=8)
        bfp = BlockFloatTensor.from_float(x, fmt)
        decoded = bfp.to_float()
        # Each value's error is at most ~one mantissa LSB at the tile's
        # shared scale (double the LSB covers the power-of-two clip).
        br, bc = fmt.block_rows, fmt.block_cols
        for ti in range(bfp.tile_grid[0]):
            for tj in range(bfp.tile_grid[1]):
                tile = x[ti * br : (ti + 1) * br, tj * bc : (tj + 1) * bc]
                out = decoded[ti * br : (ti + 1) * br, tj * bc : (tj + 1) * bc]
                if tile.size == 0:
                    continue
                max_abs = np.abs(tile).max()
                lsb = 2.0 * max_abs / 127
                assert np.abs(out - tile).max() <= lsb + 1e-12


class TestStochasticRounding:
    """The unbiased rounding HBFP uses on the weight-update path."""

    def test_unbiased_in_expectation(self):
        # A value between two codes must round to its expectation.
        fmt = BFPFormat(block_rows=4, block_cols=4)
        x = np.full((4, 4), 0.8 + 0.3 / 128, dtype=np.float32)
        rng = np.random.default_rng(0)
        decoded = [
            BlockFloatTensor.from_float(x, fmt, rounding="stochastic", rng=rng)
            .to_float()
            .mean()
            for _ in range(400)
        ]
        assert np.mean(decoded) == pytest.approx(float(x[0, 0]), rel=2e-3)

    def test_sub_lsb_signal_survives(self):
        """Nearest rounding erases a sub-LSB increment; stochastic
        rounding preserves it in expectation — why SGD's small updates
        need it."""
        fmt = BFPFormat(block_rows=8, block_cols=8)
        # 0.75 sits exactly on the mantissa grid (96/128) away from the
        # power-of-two exponent boundary.
        base = np.full((8, 8), 0.75, dtype=np.float32)
        bumped = base + 0.2 / 128  # 0.2 LSB at this tile's scale
        nearest = BlockFloatTensor.from_float(bumped, fmt).to_float()
        rng = np.random.default_rng(1)
        stochastic = np.mean(
            [
                BlockFloatTensor.from_float(
                    bumped, fmt, rounding="stochastic", rng=rng
                ).to_float()
                for _ in range(600)
            ],
            axis=0,
        )
        reference = BlockFloatTensor.from_float(base, fmt).to_float()
        assert np.all(nearest == reference)  # increment lost
        assert stochastic.mean() > reference.mean()  # increment kept

    def test_values_on_grid_unchanged(self):
        fmt = BFPFormat(block_rows=4, block_cols=4)
        x = np.zeros((4, 4), dtype=np.float32)
        rng = np.random.default_rng(3)
        out = BlockFloatTensor.from_float(x, fmt, rounding="stochastic", rng=rng)
        np.testing.assert_array_equal(out.to_float(), x)

    def test_mantissas_stay_in_range(self):
        fmt = BFPFormat(block_rows=4, block_cols=4)
        x = np.random.default_rng(2).standard_normal((16, 16)) * 50
        rng = np.random.default_rng(4)
        out = BlockFloatTensor.from_float(x, fmt, rounding="stochastic", rng=rng)
        assert out.mantissas.max() <= fmt.mantissa_max
        assert out.mantissas.min() >= fmt.mantissa_min

    def test_stochastic_without_rng_rejected(self):
        """Without a generator two equal calls could round differently."""
        with pytest.raises(ValueError, match="needs an rng"):
            BlockFloatTensor.from_float(np.ones((4, 4)), rounding="stochastic")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            BlockFloatTensor.from_float(np.zeros((2, 2)), rounding="truncate")


class TestBFPMatmul:
    def _pair(self, m, k, n, seed=0, block=4):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        fmt_a = BFPFormat(block_rows=block, block_cols=block)
        fmt_b = BFPFormat(block_rows=block, block_cols=block)
        return (
            BlockFloatTensor.from_float(a, fmt_a),
            BlockFloatTensor.from_float(b, fmt_b),
            a,
            b,
        )

    def test_matches_float_gemm_closely(self):
        a_bfp, b_bfp, a, b = self._pair(8, 12, 6, seed=2)
        out = bfp_matmul(a_bfp, b_bfp)
        exact = a @ b
        scale = np.abs(exact).max()
        assert np.abs(out - exact).max() / scale < 0.03

    def test_shape_mismatch_raises(self):
        a_bfp, _, _, _ = self._pair(4, 8, 4)
        b_bfp = BlockFloatTensor.from_float(
            np.zeros((9, 4), dtype=np.float32),
            BFPFormat(block_rows=4, block_cols=4),
        )
        with pytest.raises(ValueError):
            bfp_matmul(a_bfp, b_bfp)

    def test_tile_alignment_required(self):
        a_bfp = BlockFloatTensor.from_float(
            np.zeros((4, 8), dtype=np.float32),
            BFPFormat(block_rows=4, block_cols=8),
        )
        b_bfp = BlockFloatTensor.from_float(
            np.zeros((8, 4), dtype=np.float32),
            BFPFormat(block_rows=4, block_cols=4),
        )
        with pytest.raises(ValueError):
            bfp_matmul(a_bfp, b_bfp)

    def test_mixed_mantissa_widths_rejected(self):
        """Tile products are scaled by one width's 2(m - 1) fraction
        bits; an 8-bit × 4-bit product would come out 16× too small."""
        x = np.random.default_rng(8).standard_normal((16, 16))
        a = BlockFloatTensor.from_float(x, BFPFormat(mantissa_bits=8))
        b = BlockFloatTensor.from_float(x, BFPFormat(mantissa_bits=4))
        with pytest.raises(ValueError, match="mantissa widths differ"):
            bfp_matmul(a, b)

    def test_output_logical_shape(self):
        a_bfp, b_bfp, _, _ = self._pair(5, 9, 7)
        assert bfp_matmul(a_bfp, b_bfp).shape == (5, 7)

    def test_accumulator_saturation_clamps(self):
        # All-max mantissas across a long reduction overflow a narrow
        # accumulator; the saturated result must stay finite and below
        # the unsaturated product.
        k = 64
        a = np.full((4, k), 1.0, dtype=np.float32)
        b = np.full((k, 4), 1.0, dtype=np.float32)
        fmt = BFPFormat(block_rows=4, block_cols=k)
        fmt_b = BFPFormat(block_rows=k, block_cols=4)
        a_bfp = BlockFloatTensor.from_float(a, fmt)
        b_bfp = BlockFloatTensor.from_float(b, fmt_b)
        wide = bfp_matmul(a_bfp, b_bfp, accumulator_bits=32)
        narrow = bfp_matmul(a_bfp, b_bfp, accumulator_bits=16)
        assert np.all(np.isfinite(narrow))
        assert narrow.max() < wide.max()

    @given(
        st.integers(2, 10), st.integers(2, 12), st.integers(2, 10),
        st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_error_scales_with_operands(self, m, k, n, seed):
        a_bfp, b_bfp, a, b = self._pair(m, k, n, seed=seed)
        out = bfp_matmul(a_bfp, b_bfp)
        # Error bound: per-element products carry ~2/127 relative error
        # each, accumulated over k terms of magnitude <= |a|max·|b|max.
        bound = 4.0 / 127 * k * np.abs(a).max() * np.abs(b).max()
        assert np.abs(out - a @ b).max() <= bound
