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
    allreduce_recursive_doubling,
    allreduce_ring,
    executed_time,
    halo_exchange,
)

__all__ = [
    "CollectiveCost",
    "allgather_bruck",
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "halo_exchange",
    "executed_time",
]
