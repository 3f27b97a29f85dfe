"""Eq. 5: communication-volume ratio of pure batch vs pure model parallelism.

For a convolutional layer, the paper derives

.. math::

    \\frac{T_{vol}(batch)}{T_{vol}(model)}
      = \\frac{2 |W_i|}{3 B d_i}
      = \\frac{2 k_h k_w X_C}{3 B Y_H Y_W}

so pure batch parallelism wins whenever
``B > 2 k_h k_w X_C / (3 Y_H Y_W)``.  The surprising consequence
highlighted in Section 2.2: for AlexNet's conv4-like layers (3x3
filters on 13x13x384 activations) *model* parallelism has lower volume
for ``B <= 12``.

The general-layer form ``2 |W_i| / (3 B d_i)`` is used for FC layers,
where the same algebra applies with ``|W_i| = d_i d_{i-1}``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.nn.network import WeightedLayer

__all__ = ["batch_model_volume_ratio", "crossover_batch_size"]


def batch_model_volume_ratio(layer: WeightedLayer, batch: float) -> float:
    """``T_vol(batch) / T_vol(model) = 2 |W_i| / (3 B d_i)``.

    Values below 1 mean pure batch parallelism moves less data for this
    layer; above 1, pure model parallelism does.
    """
    if batch <= 0:
        raise ConfigurationError(f"batch must be positive, got {batch}")
    return 2.0 * layer.weights / (3.0 * batch * layer.d_out)


def crossover_batch_size(layer: WeightedLayer) -> float:
    """The batch size at which batch and model volumes break even.

    ``B* = 2 |W_i| / (3 d_i)``; batch parallelism is favourable for
    ``B > B*``.  For a (non-grouped) convolution this equals the paper's
    ``2 k_h k_w X_C / (3 Y_H Y_W)``.
    """
    return 2.0 * layer.weights / (3.0 * layer.d_out)
