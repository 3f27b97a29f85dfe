"""Mini-batch SGD (paper Eq. 1) with optional momentum.

``w_{n+1} = w_n - eta * (1/B) * sum_i grad f_i`` — the ``1/B`` scaling
is applied by the loss functions, so the optimizer consumes
already-averaged gradients.  Works identically on full weight matrices
(serial reference) and on local 1.5D blocks: since every replica of a
block receives the identical all-reduced gradient, replicas stay
bitwise consistent without further communication.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError, ShapeError

__all__ = ["SGD"]


class SGD:
    """Stateful SGD over a list of parameter arrays (updated in place)."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        """Apply one update; ``params[i]`` is modified in place."""
        if len(params) != len(grads):
            raise ConfigurationError(
                f"{len(params)} params but {len(grads)} gradients"
            )
        for i, (w, g) in enumerate(zip(params, grads)):
            if w.shape != g.shape:
                raise ShapeError(
                    f"param {i} shape {w.shape} != gradient shape {g.shape}"
                )
            if self.momentum:
                v = self._velocity.get(i)
                if v is None or v.shape != w.shape:
                    v = np.zeros_like(w)
                g = self.momentum * v + g
                self._velocity[i] = g
            w -= self.lr * g

    def get_state(self) -> Dict[int, np.ndarray]:
        """Copy of the momentum buffers, keyed by parameter index.

        Parameters that have not accumulated velocity yet are absent;
        restoring such a state recreates the optimizer exactly (used by
        the elastic trainer's checkpoints).
        """
        return {i: v.copy() for i, v in self._velocity.items()}

    def set_state(self, state: Dict[int, np.ndarray]) -> None:
        """Restore momentum buffers from :meth:`get_state` (values copied)."""
        self._velocity = {i: np.array(v, copy=True) for i, v in state.items()}
