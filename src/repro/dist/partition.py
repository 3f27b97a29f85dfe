"""1-D block partitioning of matrix dimensions.

The 1.5D layout distributes weight rows over ``Pr`` and batch columns
over ``Pc`` in contiguous, near-equal blocks: the first ``n % p`` parts
get one extra element, which keeps partitions balanced within one
element for any ``n >= p`` (and lets some parts be empty when
``n < p`` — still algebraically correct, if wasteful).
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.errors import PartitionError

__all__ = ["BlockPartition"]


@dataclasses.dataclass(frozen=True)
class BlockPartition:
    """A contiguous block split of ``n`` items over ``parts`` owners."""

    n: int
    parts: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise PartitionError(f"cannot partition a negative extent ({self.n})")
        if self.parts < 1:
            raise PartitionError(f"need at least one part, got {self.parts}")

    def bounds(self, part: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` range owned by ``part``."""
        if not 0 <= part < self.parts:
            raise PartitionError(f"part {part} out of range [0, {self.parts})")
        base, rem = divmod(self.n, self.parts)
        start = part * base + min(part, rem)
        stop = start + base + (1 if part < rem else 0)
        return start, stop

    def size(self, part: int) -> int:
        start, stop = self.bounds(part)
        return stop - start

    def owner(self, index: int) -> int:
        """The part owning global ``index``."""
        if not 0 <= index < self.n:
            raise PartitionError(f"index {index} out of range [0, {self.n})")
        base, rem = divmod(self.n, self.parts)
        threshold = rem * (base + 1)
        if index < threshold:
            return index // (base + 1)
        if base == 0:
            raise PartitionError(
                f"index {index} beyond the populated parts of a {self.n}/{self.parts} split"
            )
        return rem + (index - threshold) // base

    def local_slice(self, part: int) -> slice:
        start, stop = self.bounds(part)
        return slice(start, stop)

    def take(self, array: np.ndarray, part: int, axis: int = 0) -> np.ndarray:
        """The block of ``array`` owned by ``part`` along ``axis`` (a view)."""
        if array.shape[axis] != self.n:
            raise PartitionError(
                f"array extent {array.shape[axis]} along axis {axis} does not "
                f"match partition extent {self.n}"
            )
        index: List[slice] = [slice(None)] * array.ndim
        index[axis] = self.local_slice(part)
        return array[tuple(index)]
