"""Figure 2 experiments: hbfp8 vs fp32 convergence.

Both experiments train identical architectures from identical
initializations on identical batch orders, varying only the GEMM
encoding — so any divergence between the curves is attributable to
the arithmetic, which is precisely Figure 2's claim.
"""

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.train.data import synthetic_char_corpus, synthetic_image_classes
from repro.train.nn import Linear, ReLU, Sequential
from repro.train.optimizer import SGD
from repro.train.trainer import Trainer, TrainingCurve


def _mlp(
    in_dim: int, hidden: int, classes: int, encoding: str, seed: int
) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(in_dim, hidden, encoding=encoding, rng=rng),
        ReLU(),
        Linear(hidden, hidden, encoding=encoding, rng=rng),
        ReLU(),
        Linear(hidden, classes, encoding=encoding, rng=rng),
    )


def classification_setup(
    encoding: str,
    samples: int = 2400,
    hidden: int = 128,
    classes: int = 10,
    seed: int = 7,
) -> "Tuple[Trainer, Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]":
    """Build the Figure 2a trainer and data splits for one encoding.

    Dataset generation and model initialization are both functions of
    ``seed`` alone, so every caller reconstructs bit-identical starting
    state from pure parameters. Returns ``(trainer, train, valid)``.
    """
    x, y = synthetic_image_classes(samples=samples, classes=classes, seed=seed)
    split = int(0.8 * samples)
    train, valid = (x[:split], y[:split]), (x[split:], y[split:])
    model = _mlp(x.shape[1], hidden, classes, encoding, seed)
    trainer = Trainer(model, SGD(lr=0.05, momentum=0.9), batch=64, seed=seed)
    return trainer, train, valid


def convergence_experiment(
    encodings: Sequence[str] = ("fp32", "hbfp8"),
    epochs: int = 12,
    samples: int = 2400,
    hidden: int = 128,
    classes: int = 10,
    seed: int = 7,
) -> Dict[str, TrainingCurve]:
    """Figure 2a analog: validation error on image-like classification.

    Returns one validation-error curve per encoding; matched seeds make
    the curves directly comparable.
    """
    curves: Dict[str, TrainingCurve] = {}
    for encoding in encodings:
        trainer, train, valid = classification_setup(
            encoding,
            samples=samples,
            hidden=hidden,
            classes=classes,
            seed=seed,
        )
        curves[encoding] = trainer.fit(train, valid, epochs, encoding)
    return curves


def _char_lm_dataset(
    corpus: np.ndarray, vocab: int, context: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Next-character prediction from a one-hot context window."""
    windows = len(corpus) - context
    x = np.zeros((windows, context * vocab), dtype=np.float32)
    y = np.empty(windows, dtype=np.int64)
    for offset in range(context):
        chars = corpus[offset : offset + windows]
        x[np.arange(windows), offset * vocab + chars] = 1.0
    y[:] = corpus[context : context + windows]
    return x, y


def language_model_setup(
    encoding: str,
    corpus_length: int = 12000,
    vocab: int = 32,
    context: int = 3,
    hidden: int = 96,
    seed: int = 11,
) -> "Tuple[Trainer, Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]":
    """Build the Figure 2b trainer and data splits for one encoding.

    Pure function of its parameters (see :func:`classification_setup`).
    Returns ``(trainer, train, valid)``.
    """
    corpus = synthetic_char_corpus(length=corpus_length, vocab=vocab, seed=seed)
    x, y = _char_lm_dataset(corpus, vocab, context)
    split = int(0.85 * len(x))
    train, valid = (x[:split], y[:split]), (x[split:], y[split:])
    model = _mlp(x.shape[1], hidden, vocab, encoding, seed)
    trainer = Trainer(model, SGD(lr=0.1, momentum=0.9), batch=64, seed=seed)
    return trainer, train, valid


def perplexity_experiment(
    encodings: Sequence[str] = ("fp32", "hbfp8"),
    epochs: int = 10,
    corpus_length: int = 12000,
    vocab: int = 32,
    context: int = 3,
    hidden: int = 96,
    seed: int = 11,
) -> Dict[str, TrainingCurve]:
    """Figure 2b analog: validation perplexity of a char language model.

    The Markov corpus has low entropy, so a converging model's
    perplexity falls far below the uniform baseline (= vocab); the
    comparison is whether hbfp8 tracks fp32 down that curve.
    """
    curves: Dict[str, TrainingCurve] = {}
    for encoding in encodings:
        trainer, train, valid = language_model_setup(
            encoding,
            corpus_length=corpus_length,
            vocab=vocab,
            context=context,
            hidden=hidden,
            seed=seed,
        )
        curves[encoding] = trainer.fit(train, valid, epochs, encoding)
    return curves
