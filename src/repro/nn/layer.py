"""Base layer abstractions and parameter-free layer specs.

A *spec* is an immutable description of one layer's hyper-parameters.
Specs do not know their input shape; :class:`~repro.nn.network.NetworkSpec`
threads a :class:`Shape3D` through the stack and records the resolved
per-layer shapes as :class:`~repro.nn.network.BoundLayer` objects.
"""

from __future__ import annotations

import abc
import dataclasses

from repro.errors import ConfigurationError, ShapeError

__all__ = [
    "Shape3D",
    "LayerSpec",
    "ActivationSpec",
    "DropoutSpec",
    "LRNSpec",
    "FlattenSpec",
]


@dataclasses.dataclass(frozen=True, order=True)
class Shape3D:
    """An activation shape ``(height, width, channels)``.

    Fully connected activations are represented with ``height = width = 1``
    and ``channels`` holding the feature count, so a single type flows
    through the whole network.  The paper's ``d_i`` is :attr:`size`.
    """

    height: int
    width: int
    channels: int

    def __post_init__(self) -> None:
        for field in ("height", "width", "channels"):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ShapeError(f"Shape3D.{field} must be a positive int, got {value!r}")

    @property
    def size(self) -> int:
        """Total number of activations per sample (``d_i`` in the paper)."""
        return self.height * self.width * self.channels

    @property
    def is_flat(self) -> bool:
        """True for vector activations (fully connected layers)."""
        return self.height == 1 and self.width == 1

    @classmethod
    def flat(cls, features: int) -> "Shape3D":
        return cls(1, 1, features)

    def flattened(self) -> "Shape3D":
        return Shape3D.flat(self.size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_flat:
            return f"{self.channels}"
        return f"{self.height}x{self.width}x{self.channels}"


class LayerSpec(abc.ABC):
    """Abstract layer hyper-parameter description.

    Subclasses are frozen dataclasses; the three abstract members below
    are everything the shape-threading machinery needs.
    """

    #: Layer kind tag used by cost models ("conv", "fc", "pool", ...).
    kind: str = "abstract"

    @abc.abstractmethod
    def output_shape(self, in_shape: Shape3D) -> Shape3D:
        """Shape produced for a sample of shape ``in_shape``."""

    @abc.abstractmethod
    def param_count(self, in_shape: Shape3D) -> int:
        """Number of trainable parameters (``|W_i|``; 0 if unweighted)."""

    @abc.abstractmethod
    def flops(self, in_shape: Shape3D) -> int:
        """Forward-pass flops for one sample (multiply-add = 2 flops)."""


@dataclasses.dataclass(frozen=True)
class ActivationSpec(LayerSpec):
    """Elementwise nonlinearity (ReLU by default); shape preserving."""

    fn: str = "relu"
    kind = "activation"

    def __post_init__(self) -> None:
        if self.fn not in ("relu", "tanh", "sigmoid", "identity"):
            raise ConfigurationError(f"unknown activation {self.fn!r}")

    def output_shape(self, in_shape: Shape3D) -> Shape3D:
        return in_shape

    def param_count(self, in_shape: Shape3D) -> int:
        return 0

    def flops(self, in_shape: Shape3D) -> int:
        return in_shape.size


@dataclasses.dataclass(frozen=True)
class DropoutSpec(LayerSpec):
    """Dropout; shape preserving, parameter free (paper Section 2.1)."""

    rate: float = 0.5
    kind = "dropout"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigurationError(f"dropout rate must lie in [0, 1), got {self.rate}")

    def output_shape(self, in_shape: Shape3D) -> Shape3D:
        return in_shape

    def param_count(self, in_shape: Shape3D) -> int:
        return 0

    def flops(self, in_shape: Shape3D) -> int:
        return in_shape.size


@dataclasses.dataclass(frozen=True)
class LRNSpec(LayerSpec):
    """Local response normalisation (AlexNet); shape preserving."""

    local_size: int = 5
    kind = "lrn"

    def __post_init__(self) -> None:
        if self.local_size <= 0:
            raise ConfigurationError(f"local_size must be positive, got {self.local_size}")

    def output_shape(self, in_shape: Shape3D) -> Shape3D:
        return in_shape

    def param_count(self, in_shape: Shape3D) -> int:
        return 0

    def flops(self, in_shape: Shape3D) -> int:
        return 2 * in_shape.size * self.local_size


@dataclasses.dataclass(frozen=True)
class FlattenSpec(LayerSpec):
    """Reshape ``H x W x C -> 1 x 1 x (HWC)`` ahead of FC layers."""

    kind = "flatten"

    def output_shape(self, in_shape: Shape3D) -> Shape3D:
        return in_shape.flattened()

    def param_count(self, in_shape: Shape3D) -> int:
        return 0

    def flops(self, in_shape: Shape3D) -> int:
        return 0
