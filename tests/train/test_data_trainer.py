"""Synthetic datasets and the training loop."""

import hashlib

import numpy as np
import pytest

from repro.train.data import (
    batch_iterator,
    synthetic_char_corpus,
    synthetic_image_classes,
)
from repro.train.nn import Linear, ReLU, Sequential
from repro.train.optimizer import SGD
from repro.train.trainer import Trainer


class TestImageClasses:
    def test_shapes_and_labels(self):
        x, y = synthetic_image_classes(samples=100, classes=5, side=8)
        assert x.shape == (100, 64)
        assert set(np.unique(y)) <= set(range(5))

    def test_deterministic(self):
        a = synthetic_image_classes(samples=50, seed=3)
        b = synthetic_image_classes(samples=50, seed=3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_learnable_above_chance(self):
        """A linear probe must beat chance: the classes carry signal."""
        x, y = synthetic_image_classes(samples=600, classes=4, noise=0.5, seed=1)
        model = Sequential(Linear(x.shape[1], 4, rng=np.random.default_rng(0)))
        trainer = Trainer(model, SGD(lr=0.05), batch=32)
        for epoch in range(5):
            trainer.train_epoch(x[:500], y[:500], epoch)
        error, _ = trainer.evaluate(x[500:], y[500:])
        assert error < 60.0  # chance is 75%

    def test_rejects_undersampled(self):
        with pytest.raises(ValueError):
            synthetic_image_classes(samples=3, classes=10)


class TestCharCorpus:
    def test_range_and_length(self):
        corpus = synthetic_char_corpus(length=500, vocab=16)
        assert corpus.shape == (500,)
        assert corpus.min() >= 0 and corpus.max() < 16

    def test_sparse_transitions(self):
        corpus = synthetic_char_corpus(length=5000, vocab=16, branching=3, seed=2)
        successors = {}
        for a, b in zip(corpus[:-1], corpus[1:]):
            successors.setdefault(int(a), set()).add(int(b))
        assert all(len(s) <= 3 for s in successors.values())

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            synthetic_char_corpus(vocab=8, branching=9)

    @pytest.mark.parametrize(
        "length, vocab, branching, seed, sha256",
        [
            (12000, 32, 4, 11, "45885393726ca42405d0223900225b53"
                               "9c29ca9a9600b4e877e33d9cfbf0c604"),
            (12000, 32, 4, 14, "f28d7d5554ccab0b90f160b67d31738e"
                               "663997a2ba874b343598d19eb86829dc"),
            (5000, 16, 3, 2, "e80b86b5635a006f8afe40bdfb1360b1"
                             "14ccbd37635e066ec4e8b5c8ed886141"),
        ],
    )
    def test_stream_matches_golden(self, length, vocab, branching, seed, sha256):
        """Pinned to the stream of the per-character ``rng.choice``
        loop: fig 2's language-model curves train on these corpora."""
        corpus = synthetic_char_corpus(length, vocab, branching, seed)
        assert corpus.dtype == np.int64
        assert hashlib.sha256(corpus.tobytes()).hexdigest() == sha256


class TestBatchIterator:
    def test_covers_all_samples(self):
        x = np.arange(10).reshape(10, 1)
        y = np.arange(10)
        seen = []
        for bx, _ in batch_iterator(x, y, batch=3, seed=0):
            seen.extend(bx[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_pairs_stay_aligned(self):
        x = np.arange(20).reshape(20, 1).astype(np.float32)
        y = np.arange(20)
        for bx, by in batch_iterator(x, y, batch=7, seed=1):
            np.testing.assert_array_equal(bx[:, 0].astype(int), by)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            list(batch_iterator(np.zeros((3, 1)), np.zeros(4), batch=2))


class TestTrainer:
    def test_fit_records_curve(self):
        x, y = synthetic_image_classes(samples=300, classes=3, seed=5)
        model = Sequential(
            Linear(x.shape[1], 32, rng=np.random.default_rng(1)),
            ReLU(),
            Linear(32, 3, rng=np.random.default_rng(2)),
        )
        trainer = Trainer(model, SGD(lr=0.05), batch=32, seed=5)
        curve = trainer.fit((x[:240], y[:240]), (x[240:], y[240:]),
                            epochs=3, encoding_label="fp32")
        assert curve.epochs == [1, 2, 3]
        assert len(curve.validation_error) == 3
        assert curve.final_error <= curve.validation_error[0] + 10

    def test_rejects_zero_epochs(self):
        x, y = synthetic_image_classes(samples=100, classes=2, seed=0)
        model = Sequential(Linear(x.shape[1], 2))
        with pytest.raises(ValueError):
            Trainer(model).fit((x, y), (x, y), epochs=0)

    def test_perplexity_helpers(self):
        from repro.train.trainer import TrainingCurve

        curve = TrainingCurve(encoding="fp32")
        curve.validation_loss = [np.log(10.0), np.log(5.0)]
        assert curve.final_perplexity == pytest.approx(5.0)
        assert curve.perplexities() == pytest.approx([10.0, 5.0])

    def test_empty_curve_raises(self):
        from repro.train.trainer import TrainingCurve

        with pytest.raises(ValueError):
            _ = TrainingCurve(encoding="fp32").final_error
