"""Training substrate: SGD through the real quantized-GEMM datapaths.

Figure 2 of the paper shows that hbfp8 training matches fp32
convergence (ResNet50/ImageNet validation error, BERT/Wikipedia
perplexity). Those datasets and model scales are out of reach offline,
so this package reproduces the *claim under test* at laptop scale: a
numpy neural-network library whose every GEMM routes through
:func:`repro.arith.gemm.gemm` — the same functional hbfp8/bfloat16/fixed8
pipelines the accelerator datapath models use — trained end-to-end by
SGD on synthetic classification (Figure 2a analog) and a character
language model for perplexity (Figure 2b analog).
"""
