"""Seeded parity-fuzz corpus: the bit-exactness contract, executable.

Every registered kernel pair must agree **bit for bit** between its
``reference`` and ``fast`` implementations — not approximately:

* identical values (bit patterns, on identical dtypes/shapes),
* identical shared exponents out of quantization,
* identical RNG stream position after stochastic rounding (checked via
  ``Generator.bit_generator.state``).

:func:`corpus` enumerates a deterministic, seeded case list spanning
shapes × formats × rounding modes, deliberately including the
degenerate geometry that breaks naive vectorizations: 1×1 blocks,
ragged edges (``shape % block != 0``), all-zero blocks, power-of-two
tile maxima, float32 and transposed (non-contiguous) quantize inputs,
and heavy accumulator saturation. The matmul cases straddle every edge
of the fast arm's single float64 GEMM: tile-exponent spreads one below,
at and one above its 53-bit budget, a zero row against an all-negative
column (where a GEMM can return -0.0), subnormal decoded operands, a
ragged K, zero tiles under narrow exponents, and the wide-mantissa /
wide-accumulator corner that can never take the GEMM. Float payloads
compare bitwise, so the sign of zero counts. Tier-1 runs the whole
corpus (``tests/kernels/test_parity_fuzz.py``).
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.arith.bfp import BFPFormat
from repro.kernels.registry import get_kernel

__all__ = ["ParityCase", "check_case", "corpus", "run_suite"]


@dataclass(frozen=True)
class ParityCase:
    """One corpus entry: run under a backend, get a comparable payload."""

    kernel: str
    name: str
    run: Callable[[str], Dict[str, Any]]


def _values(seed: int, shape: Tuple[int, int], kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if kind == "gaussian":
        return x
    if kind == "tiny":
        return x * 1e-40
    if kind == "huge":
        return x * 1e30
    if kind == "huge-f64":
        return x * 1e300
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "pow2":
        # Exact powers of two exercise the mantissa-overflow clamp.
        return np.ldexp(1.0, rng.integers(-8, 9, size=shape).astype(np.int32))
    if kind == "zero-blocks":
        x = x.copy()
        x[: shape[0] // 2, :] = 0.0  # some tiles all-zero, some not
        return x
    if kind == "integers":
        return rng.integers(-500, 500, size=shape).astype(np.float64)
    if kind == "subnormal":
        return x * 1e-310  # float64 subnormals: decoded scales are too
    if kind == "zero-row":
        x = x.copy()
        x[0, :] = 0.0
        return x
    if kind == "negative":
        return -rng.uniform(0.5, 1.0, shape)  # no mantissa rounds to 0
    if kind.startswith("spread"):
        # Tile maxima in [0.75, 1) give exponent 0; the columns from 16
        # on are scaled so their 16-wide tiles get exponent S.
        x = rng.uniform(0.75, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
        x[:, 16:] *= 2.0 ** int(kind[len("spread"):])
        return x
    raise ValueError(f"unknown value kind {kind!r}")


def _quantize_case(
    name: str, seed: int, shape: Tuple[int, int], kind: str,
    fmt: BFPFormat, rounding: str, layout: str = "float64",
) -> ParityCase:
    def run(backend: str) -> Dict[str, Any]:
        x = _values(seed, shape, kind)
        if layout == "float32":
            x = x.astype(np.float32)
        elif layout == "transposed":
            x = np.ascontiguousarray(x.T).T  # same values, column-major
        rng = np.random.default_rng(seed + 1)
        impl = get_kernel("bfp.quantize").implementation(backend)
        mant, exp, logical = impl(x, fmt, rounding=rounding, rng=rng)
        # The stream position after the call is part of the contract:
        # a fast path that draws a different amount of randomness would
        # silently desynchronize everything downstream of it.
        return {
            "mantissas": mant,
            "exponents": exp,
            "logical_shape": logical,
            "rng_state": repr(rng.bit_generator.state),
        }

    return ParityCase("bfp.quantize", name, run)


def _matmul_case(
    name: str, seed: int, m: int, k: int, n: int,
    a_fmt: BFPFormat, b_fmt: BFPFormat,
    accumulator_bits: int, kind: str = "gaussian", b_kind: str = "",
) -> ParityCase:
    def run(backend: str) -> Dict[str, Any]:
        quantize = get_kernel("bfp.quantize").reference
        a_mant, a_exp, _ = quantize(_values(seed, (m, k), kind), a_fmt)
        b_values = _values(seed + 7, (k, n), b_kind or kind)
        b_mant, b_exp, _ = quantize(b_values, b_fmt)
        out = get_kernel("bfp.matmul").implementation(backend)(
            a_mant, a_exp, b_mant, b_exp, a_fmt, b_fmt, m, n,
            accumulator_bits=accumulator_bits,
        )
        return {"product": out}

    return ParityCase("bfp.matmul", name, run)


#: Formats spanning the degenerate corners. ``unit`` has 1×1 blocks
#: (every value its own tile); ``wide`` products need more than
#: float64's 53 bits (k_blk * 4^(mant_bits-1) = 2^56), so the fast
#: matmul can never use its single GEMM; ``narrow``'s minimum exponent
#: (-128) is one a nonzero tile can have, so its zero tiles count in the
#: single-GEMM guard's exponent spread.
_HBFP8 = BFPFormat(mantissa_bits=8, exponent_bits=12, block_rows=16, block_cols=16)
_UNIT = BFPFormat(mantissa_bits=4, exponent_bits=6, block_rows=1, block_cols=1)
_ODD = BFPFormat(mantissa_bits=5, exponent_bits=8, block_rows=3, block_cols=2)
_WIDE = BFPFormat(mantissa_bits=28, exponent_bits=12, block_rows=4, block_cols=4)
_NARROW = BFPFormat(mantissa_bits=8, exponent_bits=8, block_rows=16, block_cols=16)


def corpus() -> List[ParityCase]:
    """The deterministic parity corpus, every kernel pair covered."""
    cases: List[ParityCase] = []

    quant_grid = [
        ("aligned", (32, 32), "gaussian", _HBFP8),
        ("ragged", (17, 23), "gaussian", _HBFP8),
        ("single", (1, 1), "gaussian", _HBFP8),
        ("unit-blocks", (7, 5), "gaussian", _UNIT),
        ("odd-blocks", (10, 9), "gaussian", _ODD),
        ("all-zero", (33, 18), "zeros", _HBFP8),
        ("zero-blocks", (32, 16), "zero-blocks", _HBFP8),
        ("pow2-maxima", (16, 16), "pow2", _HBFP8),
        ("tiny-values", (20, 12), "tiny", _ODD),
        ("huge-values", (20, 12), "huge", _ODD),
        ("integers", (24, 24), "integers", _HBFP8),
    ]
    for i, (label, shape, kind, fmt) in enumerate(quant_grid):
        for rounding in ("nearest", "stochastic"):
            cases.append(
                _quantize_case(
                    f"quantize/{label}/{rounding}", 100 + i, shape, kind,
                    fmt, rounding,
                )
            )
    for i, layout in enumerate(("float32", "transposed")):
        for rounding in ("nearest", "stochastic"):
            cases.append(
                _quantize_case(
                    f"quantize/{layout}/{rounding}", 150 + i, (37, 21),
                    "zero-blocks", _HBFP8, rounding, layout,
                )
            )

    # Rectangular blocks: B's tile height must equal A's tile width so
    # tiles align along K — mirror _ODD for the right-hand operand.
    odd_b = BFPFormat(
        mantissa_bits=_ODD.mantissa_bits,
        exponent_bits=_ODD.exponent_bits,
        block_rows=_ODD.block_cols,
        block_cols=_ODD.block_rows,
    )
    # K = 32 (6 bits) and hbfp8's 2 * 7 product bits leave 33 bits of
    # tile-exponent spread for one exact float64 GEMM.
    matmul_grid = [
        ("square", 48, 32, 48, _HBFP8, _HBFP8, 25, "gaussian", ""),
        ("fig2-ish", 64, 128, 32, _HBFP8, _HBFP8, 25, "gaussian", ""),
        ("ragged", 17, 33, 9, _ODD, odd_b, 25, "gaussian", ""),
        ("unit-blocks", 5, 7, 3, _UNIT, _UNIT, 25, "gaussian", ""),
        ("saturating", 48, 64, 48, _HBFP8, _HBFP8, 12, "gaussian", ""),
        ("wide-mantissa", 12, 16, 12, _WIDE, _WIDE, 60, "gaussian", ""),
        ("zero-blocks", 32, 32, 32, _HBFP8, _HBFP8, 25, "zero-blocks", ""),
        ("huge-values", 16, 16, 16, _HBFP8, _HBFP8, 25, "huge", ""),
        ("spread-under-budget", 16, 32, 32, _HBFP8, _HBFP8, 25, "spread16", "spread16"),
        ("spread-at-budget", 16, 32, 32, _HBFP8, _HBFP8, 25, "spread16", "spread17"),
        ("spread-over-budget", 16, 32, 32, _HBFP8, _HBFP8, 25, "spread17", "spread17"),
        ("zero-row-negative-column", 20, 32, 20, _HBFP8, _HBFP8, 25,
         "zero-row", "negative"),
        ("subnormal", 24, 32, 24, _HBFP8, _HBFP8, 25, "subnormal", ""),
        ("subnormal-times-huge", 24, 32, 24, _HBFP8, _HBFP8, 25,
         "subnormal", "huge-f64"),
        ("ragged-k", 20, 37, 12, _HBFP8, _HBFP8, 25, "gaussian", ""),
        ("narrow-exponent-zero-blocks", 32, 48, 32, _NARROW, _NARROW, 25,
         "zero-blocks", ""),
    ]
    for i, (label, m, k, n, a_fmt, b_fmt, acc, kind, b_kind) in enumerate(
        matmul_grid
    ):
        cases.append(
            _matmul_case(
                f"matmul/{label}", 300 + i, m, k, n, a_fmt, b_fmt, acc,
                kind, b_kind,
            )
        )

    return cases


def _diff(name: str, ref: Any, got: Any) -> List[str]:
    if isinstance(ref, np.ndarray):
        if not isinstance(got, np.ndarray):
            return [f"{name}: fast returned {type(got).__name__}, not ndarray"]
        if ref.dtype != got.dtype:
            return [f"{name}: dtype {got.dtype} != reference {ref.dtype}"]
        if ref.shape != got.shape:
            return [f"{name}: shape {got.shape} != reference {ref.shape}"]
        if ref.dtype.kind == "f":
            # Compare bit patterns: the sign of zero and NaNs count.
            uint = np.dtype(f"u{ref.itemsize}")
            ref, got = ref.view(uint), got.view(uint)
        if not np.array_equal(ref, got):
            bad = int(np.sum(ref != got))
            return [f"{name}: {bad}/{ref.size} elements differ bitwise"]
        return []
    if ref != got:
        return [f"{name}: fast {got!r} != reference {ref!r}"]
    return []


def check_case(case: ParityCase) -> List[str]:
    """Run one case under both backends; return mismatch descriptions."""
    ref = case.run("reference")
    got = case.run("fast")
    problems: List[str] = []
    for key in ref:
        if key not in got:
            problems.append(f"{key}: missing from fast payload")
            continue
        problems.extend(_diff(key, ref[key], got[key]))
    for key in got:
        if key not in ref:
            problems.append(f"{key}: unexpected extra key in fast payload")
    return [f"[{case.kernel}] {case.name} :: {p}" for p in problems]


def run_suite() -> Tuple[int, List[str]]:
    """Run the whole corpus; return (cases_run, mismatches)."""
    problems: List[str] = []
    cases = corpus()
    for case in cases:
        problems.extend(check_case(case))
    return len(cases), problems
