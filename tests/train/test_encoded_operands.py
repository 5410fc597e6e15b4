"""Training encodes each GEMM operand once per step, bit for bit.

:class:`repro.train.nn.Linear` encodes X and W in forward and dY in
backward, then reuses those encodings (and their transposes) for all
three products. These tests pin that the results equal encoding every
operand per product, that an hbfp8 step quantizes half as often, and
that hbfp8 training never leaves the fast kernels' single-GEMM path.
"""

import dataclasses

import numpy as np
import pytest

from repro.arith.bfloat16 import to_bfloat16
from repro.arith.gemm import gemm
from repro.kernels import dispatch_counts, ref_bfp, use_backend
from repro.train.convergence import classification_setup, language_model_setup
from repro.train.nn import Linear, softmax_cross_entropy

ENCODINGS = ["fp32", "bfloat16", "fixed8", "hbfp8"]


def _bits(x):
    return np.asarray(x, dtype=np.float32).view(np.uint32)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_linear_matches_encoding_every_product(encoding):
    rng = np.random.default_rng(0)
    layer = Linear(40, 24, encoding=encoding, rng=rng)
    layer.bias[:] = rng.standard_normal(24)
    x = rng.standard_normal((19, 40)).astype(np.float32)
    x[:16, :16] = 0.0  # a whole zero tile under hbfp8
    dy = (rng.standard_normal((19, 24)) * 1e-3).astype(np.float32)
    weight = layer.weight.copy()

    out = layer(x)
    dx = layer.backward(dy)

    expected = gemm(x, weight, encoding) + layer.bias
    if encoding in ("hbfp8", "bfloat16"):
        expected = to_bfloat16(expected)
    np.testing.assert_array_equal(_bits(out), _bits(expected))
    np.testing.assert_array_equal(
        _bits(layer.grad_weight), _bits(gemm(x.T, dy, encoding))
    )
    np.testing.assert_array_equal(_bits(dx), _bits(gemm(dy, weight.T, encoding)))


def _quantizes():
    return sum(dispatch_counts().get("bfp.quantize", {}).values())


def test_hbfp8_step_quantizes_each_tensor_once():
    trainer, (x, y), _ = classification_setup("hbfp8", samples=200)
    model = trainer.model  # the three-layer fig2 MLP
    before = _quantizes()
    logits = model(x[:64])
    _, grad = softmax_cross_entropy(logits, y[:64])
    model.backward(grad)
    # X and W per layer in forward, dY per layer in backward.
    assert _quantizes() - before == 9


@pytest.mark.parametrize(
    "setup, kwargs",
    [
        (classification_setup, {"samples": 400, "hidden": 48}),
        (language_model_setup, {"corpus_length": 1500, "hidden": 40}),
    ],
    ids=["classification", "char-lm"],
)
def test_hbfp8_fit_is_backend_invariant_on_the_single_gemm(
    setup, kwargs, monkeypatch
):
    trainer, train, valid = setup("hbfp8", **kwargs)
    with use_backend("reference"):
        reference = trainer.fit(train, valid, 2, "hbfp8")

    # Count fast-arm matmuls that fall back to the reference loop: every
    # hbfp8 training GEMM should be exact as one float64 GEMM.
    fallbacks = []
    reference_matmul = ref_bfp.matmul

    def counting(*args, **kw):
        fallbacks.append(1)
        return reference_matmul(*args, **kw)

    monkeypatch.setattr(ref_bfp, "matmul", counting)
    trainer, train, valid = setup("hbfp8", **kwargs)
    default = trainer.fit(train, valid, 2, "hbfp8")
    assert dataclasses.asdict(reference) == dataclasses.asdict(default)
    assert fallbacks == []
