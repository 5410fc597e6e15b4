"""Training substrate: SGD through the real quantized-GEMM datapaths.

Figure 2 of the paper shows that hbfp8 training matches fp32
convergence (ResNet50/ImageNet validation error, BERT/Wikipedia
perplexity). Those datasets and model scales are out of reach offline,
so this package reproduces the *claim under test* at laptop scale: a
numpy neural-network library whose every GEMM routes through
:func:`repro.arith.gemm` — the same functional hbfp8/bfloat16/fixed8
pipelines the accelerator datapath models use — trained end-to-end by
SGD on synthetic classification (Figure 2a analog) and a character
language model for perplexity (Figure 2b analog).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.train.convergence import convergence_experiment, perplexity_experiment
    from repro.train.data import (
        batch_iterator,
        synthetic_char_corpus,
        synthetic_image_classes,
    )
    from repro.train.nn import Linear, ReLU, Sequential, Tanh, softmax_cross_entropy
    from repro.train.optimizer import SGD
    from repro.train.trainer import Trainer, TrainingCurve

__all__ = [
    "Linear",
    "ReLU",
    "Tanh",
    "Sequential",
    "softmax_cross_entropy",
    "SGD",
    "synthetic_image_classes",
    "synthetic_char_corpus",
    "batch_iterator",
    "Trainer",
    "TrainingCurve",
    "convergence_experiment",
    "perplexity_experiment",
]

__getattr__ = lazy_exports(__name__, {
    "convergence_experiment": "repro.train.convergence",
    "perplexity_experiment": "repro.train.convergence",
    "batch_iterator": "repro.train.data",
    "synthetic_char_corpus": "repro.train.data",
    "synthetic_image_classes": "repro.train.data",
    "Linear": "repro.train.nn",
    "ReLU": "repro.train.nn",
    "Sequential": "repro.train.nn",
    "Tanh": "repro.train.nn",
    "softmax_cross_entropy": "repro.train.nn",
    "SGD": "repro.train.optimizer",
    "Trainer": "repro.train.trainer",
    "TrainingCurve": "repro.train.trainer",
})
