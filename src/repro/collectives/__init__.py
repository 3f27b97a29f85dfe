"""Closed-form collective communication cost models.

These are the latency-bandwidth ("alpha-beta") costs of the collective
algorithms the paper assumes (Section 2.2): *"This analysis assumes the
use of Bruck's algorithm for all-gather and ring algorithm for
all-reduce [Thakur, Rabenseifner & Gropp 2005]"*, plus the pairwise halo
exchange used by domain parallelism.  The executable counterparts live
in :mod:`repro.simmpi`; tests cross-check the two.
"""

from repro.collectives.cost import (
    CollectiveCost,
    allgather_bruck,
    allgather_ring,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    broadcast_binomial,
    halo_exchange,
    point_to_point,
    reduce_binomial,
    reduce_scatter_ring,
)

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
