"""Optimizers for the training substrate.

SGD with momentum on fp32 master parameters — the update path HBFP
keeps in full precision (only GEMMs are block floating point). Updates
happen in place so layers keep referencing the same arrays.
"""

from typing import List, Optional

import numpy as np


class SGD:
    """Stochastic gradient descent with classical momentum.

    Attributes:
        lr: Learning rate.
        momentum: Momentum coefficient (0 disables).
        weight_decay: L2 coefficient applied to the gradients.
    """

    def __init__(
        self,
        lr: float = 0.1,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[List[np.ndarray]] = None

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        """Apply one in-place update to the fp32 master parameters."""
        if len(params) != len(grads):
            raise ValueError("parameter/gradient count mismatch")
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
        if len(self._velocity) != len(params):
            raise ValueError("optimizer bound to a different parameter set")
        for param, grad, vel in zip(params, grads, self._velocity):
            g = grad
            if self.weight_decay:
                g = g + self.weight_decay * param
            vel *= self.momentum
            vel -= self.lr * g
            param += vel

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
