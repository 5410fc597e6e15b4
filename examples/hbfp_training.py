#!/usr/bin/env python3
"""HBFP training end to end: the arithmetic that makes Equinox possible.

Trains the same network under four GEMM datapaths — fp32, hbfp8 (the
Equinox encoding), bfloat16 (the reference custom-accelerator encoding)
and plain per-tensor fixed8 — and prints the validation curves side by
side, then does the same for a character language model's perplexity
(the Figure 2 experiments). Also reports the raw quantization noise of
a BFP round trip, to connect the convergence result back to the
encoding's numerics.

Run: python examples/hbfp_training.py
"""

import numpy as np

from repro.arith.bfp import BFPFormat, BlockFloatTensor
from repro.arith.hbfp import hbfp_gemm, hbfp_quantization_noise
from repro.train.convergence import convergence_experiment, perplexity_experiment


def main() -> None:
    # 1. The encoding itself: round-trip noise and a GEMM error probe.
    rng = np.random.default_rng(3)
    activations = rng.standard_normal((64, 256)).astype(np.float32)
    weights = (rng.standard_normal((256, 128)) * 0.1).astype(np.float32)
    noise = hbfp_quantization_noise(activations)
    exact = activations @ weights
    quantized = hbfp_gemm(activations, weights)
    gemm_err = np.abs(quantized - exact).max() / np.abs(exact).max()
    bfp = BlockFloatTensor.from_float(weights, BFPFormat())
    print(
        f"hbfp8 numerics: round-trip RMS noise {noise:.4f}, "
        f"GEMM max rel. error {gemm_err:.4f}, "
        f"storage {bfp.storage_bits() / weights.size:.2f} bits/value\n"
    )

    # 2. Figure 2a analog: classification under four datapaths.
    encodings = ("fp32", "hbfp8", "bfloat16", "fixed8")
    curves = convergence_experiment(encodings=encodings, epochs=10)
    print("validation error (%) by epoch:")
    header = "epoch " + "".join(f"{enc:>10s}" for enc in encodings)
    print(header)
    epochs = curves["fp32"].epochs
    for i, epoch in enumerate(epochs):
        row = f"{epoch:5d} " + "".join(
            f"{curves[enc].validation_error[i]:10.1f}" for enc in encodings
        )
        print(row)
    gap = abs(curves["hbfp8"].final_error - curves["fp32"].final_error)
    print(f"-> hbfp8 final error within {gap:.1f} points of fp32\n")

    # 3. Figure 2b analog: language-model perplexity.
    lm = perplexity_experiment(encodings=("fp32", "hbfp8"), epochs=8)
    print("validation perplexity by epoch:")
    print("epoch       fp32      hbfp8")
    for i, epoch in enumerate(lm["fp32"].epochs):
        print(
            f"{epoch:5d} {lm['fp32'].perplexities()[i]:10.2f} "
            f"{lm['hbfp8'].perplexities()[i]:10.2f}"
        )
    ratio = lm["hbfp8"].final_perplexity / lm["fp32"].final_perplexity
    print(f"-> hbfp8 final perplexity at {ratio:.3f}x fp32")


if __name__ == "__main__":
    main()
