"""Latency-bandwidth costs of the collectives the simulator executes.

Every function takes the number of participating processes ``p``, the
*total* data size ``n`` in elements (for all-gather/all-reduce semantics
``n`` is the full result size, i.e. each process contributes ``n/p`` for
all-gather and holds a length-``n`` vector for all-reduce), and a
:class:`~repro.machine.params.MachineParams`, returning a
:class:`CollectiveCost` that separates the latency and bandwidth terms
so reports can show the breakdown the paper discusses.

The formulas follow Thakur, Rabenseifner & Gropp (2005), the paper's
reference [24], with the paper's own simplification of writing all
latency terms as ``alpha * ceil(log2 p)``:

========================  =====================================================
all-gather (Bruck)        ``ceil(log2 p) * alpha + (p-1)/p * n * beta``
all-reduce (ring)         ``2 * (ceil(log2 p) * alpha + (p-1)/p * n * beta)``
all-reduce (rec. dbl.)    ``ceil(log2 p) * alpha + ceil(log2 p) * n * beta``
halo exchange             ``alpha + n * beta`` (pairwise, per direction)
========================  =====================================================

The true ring all-reduce pays ``2 (p-1) alpha``; the paper folds latency
into ``ceil(log2 p)`` terms uniformly (Eq. 4's latency term), and so do
these costs.  What each executed schedule really sends is the cost's
``messages`` field -- per rank, Bruck ``ceil(log2 p)``, ring ``2 (p-1)``,
one per halo exchange -- so the simulator's virtual time for a term is
:func:`executed_time`, ``alpha * messages + bandwidth``.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigurationError
from repro.machine.params import MachineParams

__all__ = [
    "CollectiveCost",
    "allgather_bruck",
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "halo_exchange",
    "executed_time",
]


@dataclasses.dataclass(frozen=True)
class CollectiveCost:
    """A communication time split into latency and bandwidth components.

    ``messages`` is the per-rank send count of the executed schedule
    (zero for traffic that rides on another collective's messages).
    """

    latency: float
    bandwidth: float
    messages: int = 0

    @property
    def total(self) -> float:
        return self.latency + self.bandwidth

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(
            self.latency + other.latency,
            self.bandwidth + other.bandwidth,
            self.messages + other.messages,
        )

    def __mul__(self, factor: float) -> "CollectiveCost":
        return CollectiveCost(
            self.latency * factor, self.bandwidth * factor, self.messages * factor
        )

    __rmul__ = __mul__

    @staticmethod
    def zero() -> "CollectiveCost":
        return CollectiveCost(0.0, 0.0)


def executed_time(cost: CollectiveCost, machine: MachineParams) -> float:
    """Virtual time of ``cost``'s schedule on the simulator: one ``alpha``
    per send instead of the paper's latency convention."""
    return machine.alpha * cost.messages + cost.bandwidth


def _check(p: int, n: float) -> None:
    if p < 1:
        raise ConfigurationError(f"process count must be >= 1, got {p}")
    if n < 0:
        raise ConfigurationError(f"data size must be >= 0, got {n}")


def _log2ceil(p: int) -> int:
    return math.ceil(math.log2(p)) if p > 1 else 0


def allgather_bruck(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Bruck all-gather of a length-``n`` result over ``p`` processes.

    Each process contributes ``n/p`` elements; ``ceil(log2 p)`` rounds
    (one send each) move a total of ``(p-1)/p * n`` elements through
    each process.  This is the paper's all-gather term (Eqs. 3, 6, 8).
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    rounds = _log2ceil(p)
    return CollectiveCost(machine.alpha * rounds, machine.beta * n * (p - 1) / p, rounds)


def allreduce_ring(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Ring all-reduce: reduce-scatter + all-gather.

    With the paper's latency convention this is
    ``2 * (ceil(log2 p) * alpha + (p-1)/p * n * beta)`` -- "the factor of
    2 is merely due to the all-reduce algorithm" (Eq. 4).  The executed
    ring sends ``2 (p-1)`` messages per rank.
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    return CollectiveCost(
        machine.alpha * (2 * _log2ceil(p)), 2 * machine.beta * n * (p - 1) / p, 2 * (p - 1)
    )


def allreduce_recursive_doubling(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Recursive-doubling all-reduce: ``log p`` rounds of full-size messages.

    Lower latency, higher bandwidth than the ring -- the short-vector
    regime of the all-reduce ablation.  Requires ``p`` to be a power of
    two for the exact form; for other ``p`` the standard fallback adds
    one extra round.
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    rounds = _log2ceil(p) + (0 if (p & (p - 1)) == 0 else 1)
    return CollectiveCost(machine.alpha * rounds, machine.beta * n * rounds, rounds)


def halo_exchange(n: float, machine: MachineParams) -> CollectiveCost:
    """One pairwise halo exchange of ``n`` elements: ``alpha + beta*n``.

    The paper's domain-parallel terms (Eq. 7) charge one such exchange
    per layer per direction; the exchange is non-blocking and can
    overlap interior computation.
    """
    _check(1, n)
    return CollectiveCost(machine.alpha, machine.beta * n, 1)
