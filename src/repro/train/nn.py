"""Minimal neural-network layers over encoding-dispatched GEMM.

Every matrix multiplication — forward activations, input gradients,
weight gradients — runs under the layer's configured encoding through
:mod:`repro.arith.gemm`, mirroring how Equinox's MMU would execute
them; elementwise work runs in bfloat16 when the encoding is hbfp8
(the SIMD unit's precision) and master weights stay in fp32, exactly
the HBFP training recipe.

Each GEMM operand is encoded once per step, as the datapath stores it:
:class:`Linear` encodes X and W in forward and dY in backward, and
backward multiplies the forward encodings (and their transposes). The
weights must therefore not change between a forward and its backward;
:class:`repro.train.trainer.Trainer` updates them only after backward.
"""

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.arith.bfloat16 import to_bfloat16
from repro.arith.gemm import encode, multiply


def _simd_round(x: np.ndarray, encoding: str) -> np.ndarray:
    """Round elementwise results the way the datapath would."""
    if encoding in ("hbfp8", "bfloat16"):
        return to_bfloat16(x)
    return np.asarray(x, dtype=np.float32)


class Module:
    """Base layer: forward caches what backward needs."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[np.ndarray]:
        return []

    def gradients(self) -> List[np.ndarray]:
        return []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Fully connected layer with quantized GEMMs.

    Attributes:
        weight: fp32 master weights, shape (in_features, out_features).
        bias: fp32 master bias, shape (out_features,).
        encoding: GEMM datapath encoding for all three products.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        encoding: str = "fp32",
        rng: Optional[np.random.Generator] = None,
    ):
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.weight = (rng.standard_normal((in_features, out_features)) * scale).astype(
            np.float32
        )
        self.bias = np.zeros(out_features, dtype=np.float32)
        self.encoding = encoding
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        # Forward's encoded X and W, reused by backward.
        self._operands: Optional[Tuple[Any, Any]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x_enc = encode(np.asarray(x, dtype=np.float32), self.encoding)
        w_enc = encode(self.weight, self.encoding)
        self._operands = (x_enc, w_enc)
        out = multiply(x_enc, w_enc, self.encoding) + self.bias
        return _simd_round(out, self.encoding)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._operands is None:
            raise RuntimeError("backward before forward")
        x_enc, w_enc = self._operands
        grad = np.asarray(grad, dtype=np.float32)
        dy_enc = encode(grad, self.encoding)
        # Weight gradient: X^T @ dY through the quantized datapath.
        self.grad_weight = multiply(x_enc.T, dy_enc, self.encoding)
        self.grad_bias = grad.sum(axis=0)
        # Input gradient: dY @ W^T through the quantized datapath.
        return multiply(dy_enc, w_enc.T, self.encoding)

    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Module):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return np.where(self._mask, grad, 0.0).astype(np.float32)


class Tanh(Module):
    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x).astype(np.float32)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward before forward")
        return (grad * (1.0 - self._out**2)).astype(np.float32)


class Sequential(Module):
    """Layer chain."""

    def __init__(self, *layers: Module):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> "tuple[float, np.ndarray]":
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    Args:
        logits: (batch, classes) scores.
        labels: (batch,) integer class labels.

    Returns:
        (loss, grad) with grad already divided by the batch size.
    """
    # Loss evaluation runs on the SIMD unit's bfloat16/fp32 side, not
    # the quantized GEMM datapath; full precision here is intentional.
    logits = np.asarray(logits, dtype=np.float64)  # eqx: ignore[EQX301]
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits must be (batch, classes), labels (batch,)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    nll = -np.log(probs[np.arange(batch), labels] + 1e-12)
    grad = probs
    grad[np.arange(batch), labels] -= 1.0
    return float(nll.mean()), (grad / batch).astype(np.float32)
