"""Functional model execution through the quantized datapaths.

The timing models elsewhere in :mod:`repro.models` treat GEMMs as
shapes; this module executes them *numerically* under a chosen
datapath encoding, mirroring how Equinox's hardware would: GEMMs in the
MMU encoding (hbfp8 block floating point / bfloat16 / fixed8), gate
nonlinearities and state updates in bfloat16 on the SIMD unit. It
closes the loop between the arithmetic substrate and the workload
models — the tests use it to show that an LSTM inference on the hbfp8
datapath matches fp32 outputs closely, the numeric counterpart of the
Figure 2 training claim.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arith.bfloat16 import to_bfloat16
from repro.arith.gemm import gemm


def _simd(x: np.ndarray, encoding: str) -> np.ndarray:
    """Round SIMD (vector-unit) results to the datapath's precision."""
    if encoding in ("hbfp8", "bfloat16"):
        return to_bfloat16(x)
    return np.asarray(x, dtype=np.float32)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LSTMState:
    """Cell and hidden state of a functional LSTM."""

    h: np.ndarray
    c: np.ndarray


class FunctionalLSTMCell:
    """An LSTM cell whose recurrent GEMM runs in the MMU encoding.

    Matches the DeepBench kernel the paper times: per step the hidden
    state (batch × h) multiplies the recurrent weights (h × 4h); the
    four gates and the c/h updates run at SIMD precision.

    Attributes:
        hidden: Hidden width.
        encoding: MMU datapath encoding for the GEMM.
        weights: Recurrent weight matrix (h × 4h), fp32 masters.
        bias: Gate biases (4h,).
    """

    def __init__(
        self,
        hidden: int,
        encoding: str = "fp32",
        rng: Optional[np.random.Generator] = None,
    ):
        if hidden < 1:
            raise ValueError("hidden width must be positive")
        rng = rng or np.random.default_rng(0)
        scale = 1.0 / np.sqrt(hidden)
        self.hidden = hidden
        self.encoding = encoding
        self.weights = (
            rng.standard_normal((hidden, 4 * hidden)) * scale
        ).astype(np.float32)
        self.bias = np.zeros(4 * hidden, dtype=np.float32)
        # Forget-gate bias of 1: the standard stable initialization.
        self.bias[hidden : 2 * hidden] = 1.0

    def initial_state(self, batch: int) -> LSTMState:
        return LSTMState(
            h=np.zeros((batch, self.hidden), dtype=np.float32),
            c=np.zeros((batch, self.hidden), dtype=np.float32),
        )

    def step(self, state: LSTMState) -> LSTMState:
        """One recurrent step: MMU GEMM then SIMD gate math."""
        h = self.hidden
        gates = gemm(state.h, self.weights, self.encoding) + self.bias
        gates = _simd(gates, self.encoding)
        i = _sigmoid(gates[:, 0:h])
        f = _sigmoid(gates[:, h : 2 * h])
        g = np.tanh(gates[:, 2 * h : 3 * h])
        o = _sigmoid(gates[:, 3 * h : 4 * h])
        c = _simd(f * state.c + i * g, self.encoding)
        new_h = _simd(o * np.tanh(c), self.encoding)
        return LSTMState(h=new_h, c=c)

    def run(self, initial_h: np.ndarray, steps: int) -> np.ndarray:
        """Run ``steps`` recurrent steps from ``initial_h``; returns the
        final hidden state."""
        if steps < 1:
            raise ValueError("need at least one step")
        initial_h = np.asarray(initial_h, dtype=np.float32)
        state = LSTMState(h=initial_h, c=np.zeros_like(initial_h))
        for _ in range(steps):
            state = self.step(state)
        return state.h


class FunctionalMLP:
    """An MLP whose layer GEMMs run in the MMU encoding.

    Built from a width chain; ReLU between layers at SIMD precision.
    """

    def __init__(
        self,
        widths: "list[int]",
        encoding: str = "fp32",
        rng: Optional[np.random.Generator] = None,
    ):
        if len(widths) < 2 or min(widths) < 1:
            raise ValueError("need a chain of at least two positive widths")
        rng = rng or np.random.default_rng(0)
        self.encoding = encoding
        self.weights = [
            (
                rng.standard_normal((k, n)) * np.sqrt(2.0 / k)
            ).astype(np.float32)
            for k, n in zip(widths[:-1], widths[1:])
        ]

    def run(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        for index, weight in enumerate(self.weights):
            x = gemm(x, weight, self.encoding)
            if index < len(self.weights) - 1:
                x = _simd(np.maximum(x, 0.0), self.encoding)
        return x


def relative_output_error(
    reference: np.ndarray, quantized: np.ndarray
) -> float:
    """Max |Δ| normalized by the reference's scale."""
    reference = np.asarray(reference, dtype=np.float32)
    scale = float(np.abs(reference).max())
    if scale == 0.0:
        return float(np.abs(quantized).max())
    return float(np.abs(quantized - reference).max()) / scale
