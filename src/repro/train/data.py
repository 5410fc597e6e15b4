"""Synthetic datasets for the convergence experiments.

Offline stand-ins for the paper's ImageNet and Wikipedia corpora,
scaled so the *comparison* (hbfp8 vs fp32 convergence) is meaningful:

* :func:`synthetic_image_classes` — image-like classification with
  class-specific spatial templates plus noise and per-sample contrast
  jitter, so the task needs a real nonlinear decision boundary and the
  activations have the wide, shifting dynamic ranges that break naive
  fixed point (and that HBFP's per-tile exponents absorb);
* :func:`synthetic_char_corpus` — character sequences from a sparse
  first-order Markov chain, giving a language-modeling task with a
  well-defined (non-zero) optimal perplexity.
"""

import bisect
from typing import Iterator, Tuple

import numpy as np


def synthetic_image_classes(
    samples: int = 2000,
    classes: int = 10,
    side: int = 12,
    noise: float = 0.9,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Class-templated noisy images, flattened to vectors.

    Each class owns a smooth random template; samples are the template
    under random contrast/brightness jitter plus Gaussian noise.

    Returns:
        (x, y): x of shape (samples, side²) float32, y int labels.
    """
    if samples < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    # Smooth templates: low-frequency random fields.
    freq = 3
    basis = rng.standard_normal((classes, freq, freq))
    templates = np.zeros((classes, side, side))
    axis = np.linspace(0, np.pi, side)
    for c in range(classes):
        for i in range(freq):
            for j in range(freq):
                templates[c] += basis[c, i, j] * np.outer(
                    np.cos(axis * (i + 1)), np.cos(axis * (j + 1))
                )
    templates /= np.abs(templates).max(axis=(1, 2), keepdims=True)

    labels = rng.integers(0, classes, size=samples)
    contrast = rng.uniform(0.5, 2.0, size=(samples, 1, 1))
    brightness = rng.uniform(-0.3, 0.3, size=(samples, 1, 1))
    images = (
        templates[labels] * contrast
        + brightness
        + noise * rng.standard_normal((samples, side, side))
    )
    return images.reshape(samples, side * side).astype(np.float32), labels


def synthetic_char_corpus(
    length: int = 20000,
    vocab: int = 32,
    branching: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """A character stream from a sparse first-order Markov chain.

    Every character can be followed by only ``branching`` successors
    (with random probabilities), so a model that learns the chain
    approaches the chain's entropy; one that does not sits near
    uniform perplexity (= ``vocab``).

    Returns:
        Integer array of shape (length,) with values in [0, vocab).
    """
    if vocab < 2 or branching < 1 or branching > vocab:
        raise ValueError("need 2 <= branching <= vocab")
    rng = np.random.default_rng(seed)
    successors = np.array(
        [rng.choice(vocab, size=branching, replace=False) for _ in range(vocab)]
    )
    probs = rng.dirichlet(np.ones(branching) * 2.0, size=vocab)
    stream = np.empty(length, dtype=np.int64)
    state = int(rng.integers(vocab))
    # rng.choice(successors[state], p=probs[state]) draws one double u
    # and returns successors[state][searchsorted(cdf, u, "right")] with
    # cdf = p.cumsum() / its last entry. Drawing every u up front and
    # bisecting Python lists yields the same stream without a
    # Generator call per character.
    cdfs = probs.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    cdf_rows = cdfs.tolist()
    successor_rows = successors.tolist()
    for i, u in enumerate(rng.random(length).tolist()):
        stream[i] = state
        state = successor_rows[state][bisect.bisect_right(cdf_rows[state], u)]
    return stream


def batch_iterator(
    x: np.ndarray,
    y: np.ndarray,
    batch: int,
    seed: int = 0,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One shuffled epoch of (x, y) minibatches (last partial kept)."""
    if len(x) != len(y):
        raise ValueError("feature/label length mismatch")
    if batch < 1:
        raise ValueError("batch must be positive")
    order = np.random.default_rng(seed).permutation(len(x))
    for start in range(0, len(x), batch):
        idx = order[start : start + batch]
        yield x[idx], y[idx]
