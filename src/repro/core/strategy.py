"""Process grids and parallelization strategies.

The paper sees ``P`` processes "as logically divided into a ``Pr x Pc``
grid where the ``Pr`` dimension is implicitly responsible for
model/domain parallelism and the ``Pc`` dimension is implicitly
responsible for batch parallelism".  A :class:`Strategy` couples a
:class:`ProcessGrid` with one :class:`Placement` per weighted layer,
covering every configuration the evaluation section explores:

* ``Placement.MODEL`` — the layer partitions its weight rows over
  ``Pr`` (the 1.5D layout of Fig. 5; Eq. 8 terms).
* ``Placement.DOMAIN`` — the layer partitions sample rows over ``Pr``
  with halo exchanges (Fig. 3; the ``LD`` terms of Eq. 9).
* ``Placement.BATCH`` — the layer ignores the ``Pr`` split and runs
  pure batch parallel over all ``P`` processes (the "improved" Fig. 7
  configuration where convolutional layers are forced to
  ``Pr = 1, Pc = P``; switching grids between layers is asymptotically
  free per Eq. 6).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Tuple

from repro.errors import ConfigurationError, StrategyError
from repro.nn.network import NetworkSpec

__all__ = ["ProcessGrid", "Placement", "Strategy"]


@dataclasses.dataclass(frozen=True, order=True)
class ProcessGrid:
    """A logical ``Pr x Pc`` process grid.

    ``pr`` partitions the model/domain dimension; ``pc`` partitions the
    batch dimension.  ``pr=1`` is pure batch parallelism, ``pc=1`` pure
    model (or domain) parallelism.
    """

    pr: int
    pc: int

    def __post_init__(self) -> None:
        if self.pr < 1 or self.pc < 1:
            raise ConfigurationError(f"grid dims must be >= 1, got {self.pr}x{self.pc}")

    @property
    def p(self) -> int:
        """Total process count ``P = Pr * Pc``."""
        return self.pr * self.pc

    @classmethod
    def factorizations(cls, p: int) -> Tuple["ProcessGrid", ...]:
        """All grids with ``pr * pc == p``, ordered by increasing ``pr``.

        This is the x-axis of the paper's Fig. 6-9 subplots.  Divisors
        are trial-divided up to ``isqrt(p)`` and mirrored, so the cost
        is ``O(sqrt(P))`` rather than ``O(P)``.
        """
        if p < 1:
            raise ConfigurationError(f"P must be >= 1, got {p}")
        small = [d for d in range(1, math.isqrt(p) + 1) if p % d == 0]
        large = [p // d for d in reversed(small) if d * d != p]
        return tuple(cls(pr, p // pr) for pr in small + large)

    def __str__(self) -> str:
        return f"{self.pr}x{self.pc}"


class Placement(enum.Enum):
    """How a weighted layer uses the grid's ``Pr`` dimension."""

    MODEL = "model"
    DOMAIN = "domain"
    BATCH = "batch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class Strategy:
    """A process grid plus a placement for every weighted layer.

    Parameters
    ----------
    grid:
        The logical process grid.
    placements:
        One :class:`Placement` per weighted layer of the target network,
        in layer order.
    """

    grid: ProcessGrid
    placements: Tuple[Placement, ...]

    def __post_init__(self) -> None:
        if not self.placements:
            raise StrategyError("a strategy needs at least one layer placement")
        for pl in self.placements:
            if not isinstance(pl, Placement):
                raise StrategyError(f"placement {pl!r} is not a Placement")

    # -- constructors used throughout the evaluation ----------------------

    @classmethod
    def uniform(cls, network: NetworkSpec, grid: ProcessGrid, placement: Placement) -> "Strategy":
        """The same placement for every weighted layer (Fig. 6 / Fig. 9)."""
        return cls(grid, (placement,) * network.num_weighted)

    @classmethod
    def same_grid_model(cls, network: NetworkSpec, grid: ProcessGrid) -> "Strategy":
        """Fig. 6: the same ``Pr x Pc`` grid, model split, for all layers."""
        return cls.uniform(network, grid, Placement.MODEL)

    @classmethod
    def conv_batch_fc_model(cls, network: NetworkSpec, grid: ProcessGrid) -> "Strategy":
        """Fig. 7: convolutional layers pure batch, FC layers 1.5D model+batch."""
        placements = tuple(
            Placement.BATCH if w.is_conv else Placement.MODEL
            for w in network.weighted_layers
        )
        return cls(grid, placements)

    @classmethod
    def conv_domain_fc_model(cls, network: NetworkSpec, grid: ProcessGrid) -> "Strategy":
        """Fig. 10: convolutional layers domain parallel, FC layers 1.5D."""
        placements = tuple(
            Placement.DOMAIN if w.is_conv else Placement.MODEL
            for w in network.weighted_layers
        )
        return cls(grid, placements)

    # -- views ---------------------------------------------------------------

    def check_matches(self, network: NetworkSpec) -> None:
        """Raise unless this strategy covers ``network``'s weighted layers."""
        if len(self.placements) != network.num_weighted:
            raise StrategyError(
                f"strategy has {len(self.placements)} placements but network "
                f"{network.name!r} has {network.num_weighted} weighted layers"
            )

    def describe(self) -> str:
        """Compact description such as ``16x32 [conv:batch fc:model]``."""
        kinds = {}
        for pl in self.placements:
            kinds[pl.value] = kinds.get(pl.value, 0) + 1
        parts = " ".join(f"{k}:{v}" for k, v in sorted(kinds.items()))
        return f"{self.grid} [{parts}]"
