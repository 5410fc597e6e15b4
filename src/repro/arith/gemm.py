"""Encoding-dispatched GEMM.

A single entry point that routes a matrix multiplication through the
functional model of the requested datapath encoding. The training
substrate and the examples use this so that switching an experiment from
fp32 to hbfp8 to bfloat16 is a one-argument change — exactly the
comparison Figure 2 of the paper makes.

Each encoding is one (encode, multiply) pair: :func:`encode` gives what
the datapath stores for a tensor, :func:`multiply` multiplies two stored
operands, and ``gemm(a, b)`` is ``multiply(encode(a), encode(b))``.
Storing a tensor once lets a caller reuse it, and its transpose, in
several products — the way :class:`repro.train.nn.Linear` reuses its
forward operands in backward.
"""

from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.arith.bfloat16 import to_bfloat16
from repro.arith.bfp import BlockFloatTensor
from repro.arith.fixed_point import FixedPointFormat, quantize_fixed_point
from repro.arith.hbfp import HBFP8, HBFPConfig, hbfp_multiply


def reference_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fp32 GEMM, the accuracy reference for every encoding."""
    return (
        np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    ).astype(np.float32)


def _fp32(x: np.ndarray, config: HBFPConfig, backend: "str | None") -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def _bfloat16(
    x: np.ndarray, config: HBFPConfig, backend: "str | None"
) -> np.ndarray:
    """The TPU-style reference datapath the paper compares hbfp8 against:
    bfloat16 operands, products accumulated in fp32."""
    return to_bfloat16(x)


def _fixed8(x: np.ndarray, config: HBFPConfig, backend: "str | None") -> np.ndarray:
    """The inference-only baseline: one 8-bit fixed-point format per
    tensor. Per-tensor (not per-tile) scaling loses accuracy under the
    shifting value distributions of training — the property that
    motivates HBFP."""
    x = np.asarray(x, dtype=np.float32)
    fmt = FixedPointFormat.for_range(float(np.abs(x).max()), total_bits=8)
    return quantize_fixed_point(x, fmt)


def _hbfp8(
    x: np.ndarray, config: HBFPConfig, backend: "str | None"
) -> BlockFloatTensor:
    return BlockFloatTensor.from_float(x, config.bfp, backend=backend)


def _fp32_multiply(
    a: np.ndarray, b: np.ndarray, config: HBFPConfig, backend: "str | None"
) -> np.ndarray:
    return reference_gemm(a, b)


_DATAPATHS: Dict[str, Tuple[Callable[..., Any], Callable[..., np.ndarray]]] = {
    "fp32": (_fp32, _fp32_multiply),
    "bfloat16": (_bfloat16, _fp32_multiply),
    "fixed8": (_fixed8, _fp32_multiply),
    "hbfp8": (_hbfp8, hbfp_multiply),
}


def _datapath(
    encoding: str,
) -> Tuple[Callable[..., Any], Callable[..., np.ndarray]]:
    try:
        return _DATAPATHS[encoding]
    except KeyError:
        raise KeyError(
            f"unknown GEMM encoding {encoding!r}; choose from {sorted(_DATAPATHS)}"
        ) from None


def encode(
    x: np.ndarray,
    encoding: str = "fp32",
    hbfp_config: HBFPConfig = HBFP8,
    backend: "str | None" = None,
) -> Any:
    """What the ``encoding`` datapath stores for ``x``.

    An fp32 array, a bfloat16-rounded array, a per-tensor fixed8 array,
    or (``hbfp8``) a :class:`BlockFloatTensor` in ``hbfp_config.bfp``.
    Every encoding commutes with transposition: ``encode(x).T`` is
    ``encode(x.T)`` bit for bit.
    """
    return _datapath(encoding)[0](x, hbfp_config, backend)


def multiply(
    a: Any,
    b: Any,
    encoding: str = "fp32",
    hbfp_config: HBFPConfig = HBFP8,
    backend: "str | None" = None,
) -> np.ndarray:
    """The float32 product of two operands stored by :func:`encode`."""
    return _datapath(encoding)[1](a, b, hbfp_config, backend)


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    encoding: str = "fp32",
    hbfp_config: HBFPConfig = HBFP8,
    backend: "str | None" = None,
) -> np.ndarray:
    """Compute ``a @ b`` under the named datapath encoding.

    Args:
        a: Left operand, shape (M, K).
        b: Right operand, shape (K, N).
        encoding: One of ``fp32``, ``bfloat16``, ``fixed8``, ``hbfp8``.
        hbfp_config: Block format used when ``encoding == "hbfp8"``.
        backend: Kernel backend override, honored by the ``hbfp8``
            datapath (the other encodings have no kernel pairs).

    Returns:
        The float32 product as computed by that datapath.
    """
    encode_, multiply_ = _datapath(encoding)
    return multiply_(
        encode_(a, hbfp_config, backend),
        encode_(b, hbfp_config, backend),
        hbfp_config,
        backend,
    )
