"""bfloat16 quantization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arith.bfloat16 import bfloat16_quantization_step, to_bfloat16

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestToBfloat16:
    def test_exactly_representable_values_pass_through(self):
        values = np.array([0.0, 1.0, -1.0, 0.5, 2.0, 128.0], dtype=np.float32)
        np.testing.assert_array_equal(to_bfloat16(values), values)

    def test_drops_low_mantissa_bits(self):
        # 1 + 2^-10 is below bfloat16 resolution near 1.0 (step 2^-7).
        assert to_bfloat16(np.float32(1.0 + 2.0**-10)) == np.float32(1.0)

    def test_round_to_nearest_even_up(self):
        # Halfway between 1.0 and 1+2^-7 rounds to even (1.0).
        halfway = np.float32(1.0 + 2.0**-8)
        assert to_bfloat16(halfway) == np.float32(1.0)

    def test_rounds_above_halfway_up(self):
        value = np.float32(1.0 + 2.0**-8 + 2.0**-9)
        assert to_bfloat16(value) == np.float32(1.0 + 2.0**-7)

    def test_preserves_nan(self):
        assert np.isnan(to_bfloat16(np.float32(np.nan)))

    @pytest.mark.parametrize(
        "bits, expected",
        [
            (0x7F800001, 0x7FC00000),  # payload only in the dropped bits
            (0xFF800001, 0xFFC00000),
            (0x7F80FFFF, 0x7FC00000),
            (0x7FC00000, 0x7FC00000),  # np.nan itself is unchanged
        ],
        ids=lambda bits: f"{bits:#010x}",
    )
    def test_quiets_nan_instead_of_truncating_to_infinity(self, bits, expected):
        x = np.array([bits], dtype=np.uint32).view(np.float32)
        out = to_bfloat16(x)
        assert np.isnan(out[0])
        assert out.view(np.uint32)[0] == expected

    def test_preserves_infinities(self):
        assert to_bfloat16(np.float32(np.inf)) == np.inf
        assert to_bfloat16(np.float32(-np.inf)) == -np.inf

    def test_preserves_shape(self):
        x = np.ones((3, 5, 2), dtype=np.float32)
        assert to_bfloat16(x).shape == (3, 5, 2)

    def test_negative_symmetry(self):
        x = np.linspace(0.001, 7.3, 97, dtype=np.float32)
        np.testing.assert_array_equal(to_bfloat16(-x), -to_bfloat16(x))

    @given(finite_floats)
    def test_idempotent(self, value):
        once = to_bfloat16(np.float32(value))
        np.testing.assert_array_equal(to_bfloat16(once), once)

    @given(finite_floats)
    def test_error_within_half_step(self, value):
        rounded = float(to_bfloat16(np.float32(value)))
        if not np.isfinite(rounded):
            return  # rounded up past float32 max — overflow territory
        step = bfloat16_quantization_step(float(np.float32(value)))
        assert abs(rounded - float(np.float32(value))) <= step / 2 + 1e-30

    @given(st.lists(finite_floats, min_size=2, max_size=32))
    def test_monotonic(self, values):
        ordered = np.sort(np.array(values, dtype=np.float32))
        rounded = to_bfloat16(ordered)
        # inf - inf is nan (values at float32 max round up to inf);
        # monotonicity only forbids strictly negative differences.
        assert not np.any(np.diff(rounded) < 0)


class TestQuantizationStep:
    def test_step_near_one(self):
        assert bfloat16_quantization_step(1.0) == pytest.approx(2.0**-7)

    def test_step_scales_with_exponent(self):
        assert bfloat16_quantization_step(256.0) == pytest.approx(2.0)

    def test_zero_returns_subnormal_step(self):
        assert bfloat16_quantization_step(0.0) > 0
