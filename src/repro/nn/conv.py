r"""Convolutional layer spec implementing the paper's Eq. 2 algebra.

For a convolutional layer with ``Y_C`` filters of size
``k_h x k_w x X_C`` applied with stride ``s``:

.. math::

    |W_i| = (k_h k_w X_C) Y_C, \qquad
    d_i = Y_H Y_W Y_C = \lceil X_H / s \rceil \lceil X_W / s \rceil Y_C

(with "proper padding"; without padding the output spatial dims follow
the standard ``floor((X + 2p - k)/s) + 1`` rule, which reduces to the
paper's ceilings for same-padding).  Grouped convolutions divide the
per-filter channel extent by ``groups`` — AlexNet's historical two-GPU
grouping is what brings its parameter count to the ~61M of Table 1.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layer import LayerSpec, Shape3D

__all__ = ["ConvSpec", "conv_output_extent"]


def conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent: ``floor((extent + 2*padding - kernel)/stride) + 1``."""
    if kernel > extent + 2 * padding:
        raise ShapeError(
            f"kernel {kernel} larger than padded input extent {extent + 2 * padding}"
        )
    return (extent + 2 * padding - kernel) // stride + 1


@dataclasses.dataclass(frozen=True)
class ConvSpec(LayerSpec):
    """A 2-D convolutional layer.

    Parameters
    ----------
    out_channels:
        Number of filters ``Y_C``.
    kernel_h, kernel_w:
        Filter spatial extent ``k_h x k_w``.
    stride:
        Sliding-window stride ``s`` (same in both dims, as in the paper).
    padding:
        Symmetric zero padding per border.
    groups:
        Channel groups; filters see ``X_C / groups`` input channels.
    """

    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    kind = "conv"

    def __post_init__(self) -> None:
        if self.out_channels <= 0:
            raise ConfigurationError(f"out_channels must be positive, got {self.out_channels}")
        if self.kernel_h <= 0 or self.kernel_w <= 0:
            raise ConfigurationError(
                f"kernel dims must be positive, got {self.kernel_h}x{self.kernel_w}"
            )
        if self.stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")
        if self.padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {self.padding}")
        if self.groups <= 0:
            raise ConfigurationError(f"groups must be positive, got {self.groups}")
        if self.out_channels % self.groups != 0:
            raise ConfigurationError(
                f"out_channels {self.out_channels} not divisible by groups {self.groups}"
            )

    @classmethod
    def square(
        cls, out_channels: int, kernel: int, *, stride: int = 1, padding: int = 0, groups: int = 1
    ) -> "ConvSpec":
        """Convenience constructor for square ``kernel x kernel`` filters."""
        return cls(out_channels, kernel, kernel, stride=stride, padding=padding, groups=groups)

    def _check_input(self, in_shape: Shape3D) -> None:
        if in_shape.channels % self.groups != 0:
            raise ShapeError(
                f"input channels {in_shape.channels} not divisible by groups {self.groups}"
            )

    def output_shape(self, in_shape: Shape3D) -> Shape3D:
        self._check_input(in_shape)
        return Shape3D(
            conv_output_extent(in_shape.height, self.kernel_h, self.stride, self.padding),
            conv_output_extent(in_shape.width, self.kernel_w, self.stride, self.padding),
            self.out_channels,
        )

    def param_count(self, in_shape: Shape3D) -> int:
        """Eq. 2: ``|W| = k_h * k_w * (X_C / groups) * Y_C`` (no bias)."""
        self._check_input(in_shape)
        return self.kernel_h * self.kernel_w * (in_shape.channels // self.groups) * self.out_channels

    def flops(self, in_shape: Shape3D) -> int:
        """Two flops per multiply-add, per output element, per filter tap."""
        out = self.output_shape(in_shape)
        taps = self.kernel_h * self.kernel_w * (in_shape.channels // self.groups)
        return 2 * taps * out.size
