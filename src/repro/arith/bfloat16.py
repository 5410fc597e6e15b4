"""bfloat16 quantization.

bfloat16 is the upper 16 bits of an IEEE-754 float32: 1 sign bit, 8
exponent bits, 7 mantissa bits. Quantization is implemented with
round-to-nearest-even on the dropped 16 bits, matching hardware
converters used in TPU-class accelerators.
"""

import numpy as np


def to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round ``values`` to bfloat16 precision, returned as float32.

    Uses round-to-nearest-even on the 16 truncated mantissa bits, the
    rounding mode hardware bfloat16 converters implement. NaN and inf
    are preserved: like hardware converters, NaNs are quieted (bit 22
    set) before truncation, so a payload held only in the dropped low
    bits cannot turn into infinity.
    """
    x = np.asarray(values, dtype=np.float32)
    bits = x.view(np.uint32)
    # Round to nearest even: add 0x7FFF plus the LSB of the surviving
    # mantissa, then truncate.
    rounded = np.right_shift(bits, 16, out=np.empty_like(bits))
    rounded &= 1
    rounded += 0x7FFF
    rounded += bits
    np.bitwise_or(bits, np.uint32(0x00400000), out=rounded, where=np.isnan(x))
    return (rounded & np.uint32(0xFFFF0000)).view(np.float32)


def bfloat16_quantization_step(value: float) -> float:
    """Return the spacing between adjacent bfloat16 values near ``value``.

    Useful for error-bound assertions in tests: the round-off error of
    :func:`to_bfloat16` never exceeds half this step.
    """
    if value == 0.0 or not np.isfinite(value):
        return 2.0 ** -133  # smallest subnormal step
    exponent = np.floor(np.log2(abs(value)))
    return float(2.0 ** (exponent - 7))
