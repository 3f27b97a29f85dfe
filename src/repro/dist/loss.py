"""The loss function in the paper's column-per-sample matrix convention.

Activations are ``(features, batch)`` matrices — each column one sample
— matching ``Y_i = W_i X_i`` throughout the paper.  The loss returns
``(loss, dZ)`` where ``dZ`` is the gradient w.r.t. the pre-activation
logits, already scaled by ``1/B_global`` so that distributed partial
sums over batch shards add up to the exact serial gradient.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = ["softmax_cross_entropy"]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, global_batch: int | None = None
) -> Tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over columns.

    Parameters
    ----------
    logits:
        ``(num_classes, local_batch)`` pre-softmax scores.
    labels:
        ``(local_batch,)`` integer class ids.
    global_batch:
        The *global* batch size ``B`` used for the ``1/B`` scaling; in a
        distributed run each batch shard passes the global value so the
        shard losses/gradients sum to the serial quantities.  Defaults
        to the local batch.

    Returns
    -------
    (loss_sum_over_local / B, dZ) where ``dZ = (softmax - onehot) / B``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (classes, batch), got {logits.shape}")
    classes, local_b = logits.shape
    if labels.shape != (local_b,):
        raise ShapeError(f"labels shape {labels.shape} != ({local_b},)")
    if np.any((labels < 0) | (labels >= classes)):
        raise ShapeError("label out of range")
    b = int(global_batch) if global_batch is not None else local_b
    if b <= 0:
        raise ShapeError(f"global batch must be positive, got {b}")
    shifted = logits - logits.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=0, keepdims=True)
    idx = (labels, np.arange(local_b))
    log_probs = shifted[idx] - np.log(exp.sum(axis=0))
    loss = float(-log_probs.sum() / b)
    dz = probs.copy()
    dz[idx] -= 1.0
    dz /= b
    return loss, dz
