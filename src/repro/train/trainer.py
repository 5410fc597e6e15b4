"""Training loop and validation-curve collection."""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.train.data import batch_iterator
from repro.train.nn import Sequential, softmax_cross_entropy
from repro.train.optimizer import SGD


@dataclass
class TrainingCurve:
    """Per-epoch validation metrics — the series Figure 2 plots."""

    encoding: str
    epochs: List[int] = field(default_factory=list)
    validation_error: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)

    @property
    def final_error(self) -> float:
        if not self.validation_error:
            raise ValueError("no epochs recorded")
        return self.validation_error[-1]

    @property
    def final_perplexity(self) -> float:
        """Perplexity of the final epoch (exp of the mean NLL)."""
        if not self.validation_loss:
            raise ValueError("no epochs recorded")
        return float(np.exp(self.validation_loss[-1]))

    def perplexities(self) -> List[float]:
        return [float(np.exp(loss)) for loss in self.validation_loss]


class Trainer:
    """SGD classification trainer over the quantized-GEMM layers.

    Each step runs forward, backward, then the optimizer: the weights
    change only after backward, which multiplies the operands its
    forward encoded (see :mod:`repro.train.nn`).

    Args:
        model: The network (built with the desired GEMM encoding).
        optimizer: Parameter updater (fp32 masters).
        batch: Minibatch size.
        seed: Shuffling seed, fixed so encodings see identical batches
            and the curves are directly comparable.
    """

    def __init__(
        self,
        model: Sequential,
        optimizer: Optional[SGD] = None,
        batch: int = 64,
        seed: int = 0,
    ):
        self.model = model
        self.optimizer = optimizer or SGD(lr=0.05, momentum=0.9)
        self.batch = batch
        self.seed = seed

    def train_epoch(self, x: np.ndarray, y: np.ndarray, epoch: int) -> float:
        """One epoch of SGD; returns the mean training loss."""
        losses = []
        for bx, by in batch_iterator(x, y, self.batch, seed=self.seed + epoch):
            logits = self.model(bx)
            loss, grad = softmax_cross_entropy(logits, by)
            self.model.backward(grad)
            self.optimizer.step(self.model.parameters(), self.model.gradients())
            losses.append(loss)
        return float(np.mean(losses))

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        """(error %, mean loss) on a held-out set."""
        logits = self.model(x)
        loss, _ = softmax_cross_entropy(logits, y)
        predictions = np.argmax(logits, axis=1)
        error = float(np.mean(predictions != y) * 100.0)
        return error, loss

    def fit(
        self,
        train: Tuple[np.ndarray, np.ndarray],
        valid: Tuple[np.ndarray, np.ndarray],
        epochs: int,
        encoding_label: str = "fp32",
    ) -> TrainingCurve:
        """Train for ``epochs`` epochs, recording the validation curve."""
        if epochs < 1:
            raise ValueError("need at least one epoch")
        curve = TrainingCurve(encoding=encoding_label)
        for epoch in range(1, epochs + 1):
            self.train_epoch(train[0], train[1], epoch)
            error, loss = self.evaluate(valid[0], valid[1])
            curve.epochs.append(epoch)
            curve.validation_error.append(error)
            curve.validation_loss.append(loss)
        return curve
