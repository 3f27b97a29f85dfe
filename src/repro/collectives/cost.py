"""Latency-bandwidth costs of collective operations.

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
reduce-scatter (ring)     ``ceil(log2 p) * alpha + (p-1)/p * n * beta``
all-reduce (rec. dbl.)    ``ceil(log2 p) * alpha + ceil(log2 p) * n * beta``
broadcast (binomial)      ``ceil(log2 p) * (alpha + n * beta)``
halo exchange             ``alpha + n * beta`` (pairwise, per direction)
========================  =====================================================

(The true ring algorithms pay ``(p-1) * alpha``; the paper folds latency
into ``ceil(log2 p)`` terms uniformly — Eq. 4's latency term.  We keep
the paper's convention here and expose the exact-ring variant via the
``exact_latency`` flag so the simulator cross-checks in the test suite
can use the faithful count.)
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigurationError
from repro.machine.params import MachineParams

__all__ = [
    "CollectiveCost",
    "allgather_bruck",
    "allgather_ring",
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "allreduce_rabenseifner",
    "reduce_scatter_ring",
    "reduce_binomial",
    "broadcast_binomial",
    "halo_exchange",
    "point_to_point",
]


@dataclasses.dataclass(frozen=True)
class CollectiveCost:
    """A communication time split into latency and bandwidth components."""

    latency: float
    bandwidth: float

    @property
    def total(self) -> float:
        return self.latency + self.bandwidth

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(self.latency + other.latency, self.bandwidth + other.bandwidth)

    def __mul__(self, factor: float) -> "CollectiveCost":
        return CollectiveCost(self.latency * factor, self.bandwidth * factor)

    __rmul__ = __mul__

    @staticmethod
    def zero() -> "CollectiveCost":
        return CollectiveCost(0.0, 0.0)


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
    move a total of ``(p-1)/p * n`` elements through each process.
    This is the paper's all-gather term (Eqs. 3, 6, 8).
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    return CollectiveCost(
        machine.alpha * _log2ceil(p), machine.beta * n * (p - 1) / p
    )


def allgather_ring(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Ring all-gather: ``(p-1)`` rounds of ``n/p``-element messages."""
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    return CollectiveCost(machine.alpha * (p - 1), machine.beta * n * (p - 1) / p)


def reduce_scatter_ring(
    p: int, n: float, machine: MachineParams, *, exact_latency: bool = False
) -> CollectiveCost:
    """Ring reduce-scatter of a length-``n`` vector."""
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    lat = (p - 1) if exact_latency else _log2ceil(p)
    return CollectiveCost(machine.alpha * lat, machine.beta * n * (p - 1) / p)


def allreduce_ring(
    p: int, n: float, machine: MachineParams, *, exact_latency: bool = False
) -> CollectiveCost:
    """Ring all-reduce: reduce-scatter + all-gather.

    With the paper's latency convention this is
    ``2 * (ceil(log2 p) * alpha + (p-1)/p * n * beta)`` — "the factor of
    2 is merely due to the all-reduce algorithm" (Eq. 4).  Setting
    ``exact_latency=True`` uses the faithful ``2(p-1)`` message count,
    which is what the simulator in :mod:`repro.simmpi` produces.
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    lat = 2 * (p - 1) if exact_latency else 2 * _log2ceil(p)
    return CollectiveCost(machine.alpha * lat, 2 * machine.beta * n * (p - 1) / p)


def allreduce_rabenseifner(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Rabenseifner all-reduce: recursive-halving reduce-scatter followed
    by recursive-doubling all-gather (Thakur et al. [24]).

    ``2 ceil(log2 p) alpha + 2 (p-1)/p n beta`` — the same bandwidth as
    the ring with logarithmic latency; the paper's ``ceil(log2 p)``
    latency convention for Eq. 4 is in fact this algorithm's count.
    For non powers of two one extra fold/unfold round is charged.
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    extra = 0 if (p & (p - 1)) == 0 else 2
    return CollectiveCost(
        machine.alpha * (2 * _log2ceil(p) + extra),
        2 * machine.beta * n * (p - 1) / p,
    )


def reduce_binomial(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Binomial-tree reduce to one root: ``ceil(log2 p)`` rounds of
    full-size messages (the mirror image of the broadcast)."""
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    rounds = _log2ceil(p)
    return CollectiveCost(machine.alpha * rounds, machine.beta * n * rounds)


def allreduce_recursive_doubling(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Recursive-doubling all-reduce: ``log p`` rounds of full-size messages.

    Lower latency, higher bandwidth than the ring — useful for the
    short-vector regime; included to let strategy studies swap
    algorithms.  Requires ``p`` to be a power of two for the exact form;
    for other ``p`` the standard fallback adds one extra round.
    """
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    rounds = _log2ceil(p)
    extra = 0 if (p & (p - 1)) == 0 else 1
    return CollectiveCost(
        machine.alpha * (rounds + extra), machine.beta * n * (rounds + extra)
    )


def broadcast_binomial(p: int, n: float, machine: MachineParams) -> CollectiveCost:
    """Binomial-tree broadcast of ``n`` elements."""
    _check(p, n)
    if p == 1:
        return CollectiveCost.zero()
    rounds = _log2ceil(p)
    return CollectiveCost(machine.alpha * rounds, machine.beta * n * rounds)


def halo_exchange(n: float, machine: MachineParams) -> CollectiveCost:
    """One pairwise halo exchange of ``n`` elements: ``alpha + beta*n``.

    The paper's domain-parallel terms (Eq. 7) charge one such exchange
    per layer per direction; the exchange is non-blocking and can
    overlap interior computation.
    """
    _check(1, n)
    return CollectiveCost(machine.alpha, machine.beta * n)


def point_to_point(n: float, machine: MachineParams) -> CollectiveCost:
    """A single message of ``n`` elements."""
    _check(1, n)
    return CollectiveCost(machine.alpha, machine.beta * n)
