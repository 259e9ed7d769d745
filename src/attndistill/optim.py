"""SGD with momentum; the velocity buffers double as the regrowth signal."""

from __future__ import annotations

import numpy as np


class SGD:
    """v <- m*v + (g + wd*w);  w <- w - lr*v, per named parameter. Every run
    trains with the default m = 0.9, which the recipe fixes; tests pass others.

    Velocity buffers are kept dense even for masked weights: gradients keep
    flowing into inactive coordinates, and the sparse mask engine ranks
    those velocities when deciding what to regrow.
    """

    def __init__(self, params: dict, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v = self.velocities[name]
            v *= self.momentum
            v += g
            p.data -= self.lr * v
