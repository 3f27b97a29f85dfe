"""Communication/computation overlap (paper Fig. 8).

The paper re-evaluates the Fig. 7 configuration assuming "a perfect
overlap between communication and computation": the backward-pass
all-reduces can proceed while the transposed convolutions of the next
layers run, "which accounts for two-thirds of the communication".  Even
then the integrated approach keeps a 2.0x speedup at ``P = 512``.

:func:`overlapped_time` applies that model: a fraction of the
communication time is hidden behind the (backprop share of the) compute
time; whatever cannot be hidden remains on the critical path.
"""

from __future__ import annotations

from repro.core.costs import CostBreakdown
from repro.errors import ConfigurationError

__all__ = [
    "overlapped_time",
    "overlapped_time_from_breakdown",
    "BACKPROP_COMM_FRACTION",
    "BACKPROP_COMPUTE_FRACTION",
    "BLOCKING_CATEGORIES",
]

#: Fraction of communication that occurs during backprop and can overlap
#: (the dX and dW all-reduces: 2 of the 3 matrix products — paper Fig. 8).
BACKPROP_COMM_FRACTION = 2.0 / 3.0

#: Fraction of compute available to hide it behind (the backward pass is
#: 2 of the 3 matrix products).
BACKPROP_COMPUTE_FRACTION = 2.0 / 3.0


def overlapped_time(
    comm_time: float,
    compute_time: float,
    *,
    overlappable_fraction: float = BACKPROP_COMM_FRACTION,
    compute_fraction: float = BACKPROP_COMPUTE_FRACTION,
) -> float:
    """Total iteration time with perfect comm/backprop overlap.

    ``overlappable_fraction`` of ``comm_time`` runs concurrently with
    ``compute_fraction`` of ``compute_time``; the rest of the
    communication is exposed.  The result is never less than
    ``compute_time`` (compute is the floor) nor more than the
    non-overlapped sum.
    """
    if comm_time < 0 or compute_time < 0:
        raise ConfigurationError("times must be >= 0")
    if not 0.0 <= overlappable_fraction <= 1.0:
        raise ConfigurationError(
            f"overlappable_fraction must lie in [0, 1], got {overlappable_fraction}"
        )
    if not 0.0 <= compute_fraction <= 1.0:
        raise ConfigurationError(
            f"compute_fraction must lie in [0, 1], got {compute_fraction}"
        )
    hidden_capacity = compute_fraction * compute_time
    overlappable = overlappable_fraction * comm_time
    exposed = comm_time - min(overlappable, hidden_capacity)
    return compute_time + exposed


#: Categories that sit on the forward critical path and cannot overlap:
#: the paper stresses that "in model parallel one has to perform a
#: blocking all-gather operation which is detrimental for performance",
#: whereas halos and backward all-reduces are non-blocking/overlappable.
BLOCKING_CATEGORIES = ("model.allgather_fwd",)


def overlapped_time_from_breakdown(
    breakdown: CostBreakdown,
    compute_time: float,
    *,
    compute_fraction: float = BACKPROP_COMPUTE_FRACTION,
    blocking_categories: tuple = BLOCKING_CATEGORIES,
) -> float:
    """Category-aware overlap: blocking terms stay exposed, the rest hides.

    A refinement of the paper's flat two-thirds rule that uses the cost
    breakdown's structure: the forward all-gather is blocking (it feeds
    the very next local GEMM), while halo exchanges and the backward
    dX/dW all-reduces can proceed under up to ``compute_fraction`` of
    the compute time.  This is the model behind the Fig.-10 discussion
    of why domain parallelism (tiny, overlappable halos) is preferred
    over model parallelism (large, blocking all-gathers) for early
    layers.
    """
    if compute_time < 0:
        raise ConfigurationError("compute time must be >= 0")
    if not 0.0 <= compute_fraction <= 1.0:
        raise ConfigurationError(
            f"compute_fraction must lie in [0, 1], got {compute_fraction}"
        )
    blocking = breakdown.filter(*blocking_categories).total
    overlappable = breakdown.total - blocking
    hidden = min(overlappable, compute_fraction * compute_time)
    return compute_time + blocking + (overlappable - hidden)
