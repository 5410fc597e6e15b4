"""Encoding-dispatched GEMM."""

import numpy as np
import pytest

from repro.arith.gemm import encode, gemm, multiply, reference_gemm

ENCODINGS = ["fp32", "bfloat16", "fixed8", "hbfp8"]


@pytest.fixture
def operands():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((12, 24)).astype(np.float32),
        (rng.standard_normal((24, 8)) * 0.3).astype(np.float32),
    )


class TestDispatch:
    @pytest.mark.parametrize("encoding", ["fp32", "bfloat16", "fixed8", "hbfp8"])
    def test_all_encodings_produce_close_results(self, operands, encoding):
        a, b = operands
        out = gemm(a, b, encoding)
        exact = reference_gemm(a, b)
        assert out.shape == exact.shape
        assert np.abs(out - exact).max() / np.abs(exact).max() < 0.08

    def test_unknown_encoding_raises_with_choices(self, operands):
        a, b = operands
        with pytest.raises(KeyError, match="hbfp8"):
            gemm(a, b, "int4")

    def test_fp32_is_exact_reference(self, operands):
        a, b = operands
        np.testing.assert_array_equal(gemm(a, b, "fp32"), reference_gemm(a, b))

    def test_output_dtype_float32(self, operands):
        a, b = operands
        for encoding in ("fp32", "bfloat16", "fixed8", "hbfp8"):
            assert gemm(a, b, encoding).dtype == np.float32


def _bits(x):
    return np.asarray(x, dtype=np.float32).view(np.uint32)


class TestEncodeMultiply:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_gemm_multiplies_the_encoded_operands(self, operands, encoding):
        a, b = operands
        stored = multiply(encode(a, encoding), encode(b, encoding), encoding)
        np.testing.assert_array_equal(_bits(gemm(a, b, encoding)), _bits(stored))

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_transposed_encoding_equals_encoded_transpose(self, operands, encoding):
        a, _ = operands
        a = a.copy()
        a[:16, :16] = 0.0  # a whole zero tile under hbfp8
        a_enc = encode(a, encoding)
        np.testing.assert_array_equal(
            _bits(multiply(a_enc.T, a_enc, encoding)),
            _bits(gemm(a.T, a, encoding)),
        )

    def test_unknown_encoding_raises_on_encode(self, operands):
        with pytest.raises(KeyError, match="fixed8"):
            encode(operands[0], "int4")


class TestEncodingAccuracyOrdering:
    def test_hbfp8_beats_fixed8_on_mixed_scales(self):
        """HBFP's per-tile exponents absorb dynamic range that a single
        per-tensor fixed-point format cannot — the property that makes
        training converge (paper §2.2). A lone outlier wrecks fixed8's
        global scale for every value; it only degrades its own tile in
        HBFP, so the outlier-free output rows stay accurate."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((48, 32)).astype(np.float32)
        a[0, 0] = 1000.0  # outlier confined to the first 16-row tile
        b = rng.standard_normal((32, 16)).astype(np.float32)
        exact = reference_gemm(a, b)
        clean = slice(16, None)  # rows whose tiles exclude the outlier
        err_hbfp = np.abs(gemm(a, b, "hbfp8")[clean] - exact[clean]).max()
        err_fixed = np.abs(gemm(a, b, "fixed8")[clean] - exact[clean]).max()
        assert err_hbfp < err_fixed / 5

    def test_bfloat16_error_bounded(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((16, 64)).astype(np.float32)
        b = rng.standard_normal((64, 16)).astype(np.float32)
        exact = reference_gemm(a, b)
        err = np.abs(gemm(a, b, "bfloat16") - exact).max()
        # Two operands at 2^-8 relative error over the reduction.
        assert err <= 3 * 2.0**-8 * 64 * np.abs(a).max() * np.abs(b).max() / 8
