"""Network machine parameters (``alpha``/``beta`` model).

The paper's communication analysis (Eqs. 3-9) is written in the
classic latency-bandwidth ("alpha-beta", Hockney) model used by Thakur,
Rabenseifner and Gropp [24]: sending a message of ``n`` *words* costs
``alpha + beta * n`` seconds.  The paper works in words of a fixed
element size (activations and weights are single-precision floats on
KNL), so :class:`MachineParams` carries the element size and exposes
both per-word and per-byte views of the inverse bandwidth.

The analysis deliberately ignores topology and network conflicts
(paper, "Limitations"): *"the effects of this can be approximated by
adjusting the latency and bandwidth terms accordingly"* — hence the
:meth:`MachineParams.derated` helper.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigurationError

__all__ = ["MachineParams", "cori_knl"]


@dataclasses.dataclass(frozen=True)
class MachineParams:
    """Latency-bandwidth machine description.

    Parameters
    ----------
    alpha:
        Per-message network latency in seconds.
    beta_per_byte:
        Inverse bandwidth in seconds per *byte* (``1 / bandwidth``).
    element_bytes:
        Size in bytes of one matrix element (word).  The paper's volumes
        (``B * d_i``, ``|W_i|`` ...) count elements; multiplying by this
        converts to bytes.  Default 4 (float32).
    name:
        Human-readable platform name, used in reports.
    flops_peak:
        Peak floating-point rate of one process (flop/s).  Only used by
        compute models that estimate efficiency; the communication
        analysis never touches it.
    """

    alpha: float
    beta_per_byte: float
    element_bytes: int = 4
    name: str = "custom"
    flops_peak: float = 6.0e12

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigurationError(f"latency alpha must be >= 0, got {self.alpha}")
        if self.beta_per_byte < 0:
            raise ConfigurationError(
                f"inverse bandwidth must be >= 0, got {self.beta_per_byte}"
            )
        if self.element_bytes <= 0:
            raise ConfigurationError(
                f"element_bytes must be positive, got {self.element_bytes}"
            )
        if self.flops_peak <= 0:
            raise ConfigurationError(f"flops_peak must be positive, got {self.flops_peak}")

    @property
    def beta(self) -> float:
        """Inverse bandwidth in seconds per *element* (word).

        This is the ``beta`` that appears in the paper's equations,
        where communication volumes are counted in matrix elements.
        """
        return self.beta_per_byte * self.element_bytes

    @property
    def bandwidth(self) -> float:
        """Bandwidth in bytes per second (``1 / beta_per_byte``)."""
        if self.beta_per_byte == 0:
            return math.inf
        return 1.0 / self.beta_per_byte

    def derated(self, *, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "MachineParams":
        """Return a copy with adjusted effective latency/bandwidth.

        The paper's limitations section suggests folding topology and
        congestion effects into the two constants; ``bandwidth_factor``
        < 1 models achieving only that fraction of peak bandwidth.
        """
        if latency_factor <= 0 or bandwidth_factor <= 0:
            raise ConfigurationError("derating factors must be positive")
        return dataclasses.replace(
            self,
            alpha=self.alpha * latency_factor,
            beta_per_byte=self.beta_per_byte / bandwidth_factor,
            name=f"{self.name} (derated x{latency_factor:g}/{bandwidth_factor:g})",
        )


def cori_knl() -> MachineParams:
    """The paper's Table 1 platform: NERSC Cori, Intel KNL.

    ``alpha = 2 us``, ``1/beta = 6 GB/s``.  KNL single-precision peak is
    roughly 6 Tflop/s; the exact value only scales the compute model.
    """
    return MachineParams(
        alpha=2.0e-6,
        beta_per_byte=1.0 / 6.0e9,
        element_bytes=4,
        name="Cori (Intel KNL)",
        flops_peak=6.0e12,
    )
