"""Compute-time models.

The paper treats compute empirically: it measures single-KNL AlexNet
iteration time as a function of batch size (Fig. 4) and combines that
with the analytic communication costs to obtain total run times
(Section 3, "we also consider the computational time by empirically
measuring the time needed for an SGD iteration").  Two classes live here:

:class:`EpochTimeTable`
    Interpolates an ``epoch-time(batch)`` table (log-log linear) and
    converts it into a per-iteration time ``t_iter(b) = epoch(b)*b/N``.

:class:`ComputeModel`
    Maps a distributed configuration to per-process compute time per
    iteration.  Every grid over the same ``P = Pr*Pc`` processes does the
    same total work, so each process runs an even ``1/P`` share of the
    ``B``-sample iteration: ``(B/P) * t_iter(b)/b`` at ``b = max(B/P, 1)``
    (:meth:`ComputeModel.share_iteration_time`).  The batch-size
    dependence of the table captures the hardware-efficiency effect the
    paper highlights (small local batches under-utilise the node,
    Fig. 4); the even share assumes the model/domain split is load
    balanced, as the paper does.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Iterable, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.machine.knl_data import IMAGENET_TRAIN_IMAGES, knl_alexnet_table

__all__ = ["EpochTimeTable", "ComputeModel"]


class EpochTimeTable:
    """Log-log interpolated ``batch size -> one-epoch time`` table.

    Parameters
    ----------
    entries:
        Mapping or iterable of ``(batch, seconds)`` pairs; batch sizes
        must be positive and unique, times positive.
    dataset_size:
        Number of samples per epoch (``N``); converts epoch time into
        per-iteration time via ``t_iter(b) = epoch(b) * b / N``.
    """

    def __init__(
        self,
        entries: Mapping[int, float] | Iterable[Tuple[int, float]],
        *,
        dataset_size: int = IMAGENET_TRAIN_IMAGES,
    ) -> None:
        if isinstance(entries, Mapping):
            pairs = sorted(entries.items())
        else:
            pairs = sorted(entries)
        if not pairs:
            raise ConfigurationError("epoch-time table must not be empty")
        if dataset_size <= 0:
            raise ConfigurationError(f"dataset_size must be positive, got {dataset_size}")
        batches = [b for b, _ in pairs]
        if len(set(batches)) != len(batches):
            raise ConfigurationError("duplicate batch sizes in epoch-time table")
        for b, t in pairs:
            if b <= 0:
                raise ConfigurationError(f"batch sizes must be positive, got {b}")
            if t <= 0:
                raise ConfigurationError(f"epoch times must be positive, got {t}")
        self._log_b = [math.log(b) for b, _ in pairs]
        self._log_t = [math.log(t) for _, t in pairs]
        self._pairs: Tuple[Tuple[int, float], ...] = tuple(pairs)
        self.dataset_size = int(dataset_size)

    @classmethod
    def knl_alexnet(cls) -> "EpochTimeTable":
        """The embedded Fig.-4-shaped AlexNet-on-KNL table."""
        return cls(knl_alexnet_table(), dataset_size=IMAGENET_TRAIN_IMAGES)

    @property
    def entries(self) -> Tuple[Tuple[int, float], ...]:
        return self._pairs

    def epoch_time(self, batch: float) -> float:
        """One-epoch time at ``batch``, log-log interpolated, clamped outside."""
        if batch <= 0:
            raise ConfigurationError(f"batch must be positive, got {batch}")
        lb = math.log(batch)
        logs_b, logs_t = self._log_b, self._log_t
        if lb <= logs_b[0]:
            return math.exp(logs_t[0])
        if lb >= logs_b[-1]:
            return math.exp(logs_t[-1])
        hi = bisect.bisect_right(logs_b, lb)
        lo = hi - 1
        frac = (lb - logs_b[lo]) / (logs_b[hi] - logs_b[lo])
        return math.exp(logs_t[lo] + frac * (logs_t[hi] - logs_t[lo]))

    def iteration_time(self, batch: float) -> float:
        """Single-process time for one SGD iteration at local batch ``batch``."""
        return self.epoch_time(batch) * batch / self.dataset_size

    def best_batch(self) -> int:
        """The tabulated batch size with the lowest epoch time (paper: 256)."""
        return min(self._pairs, key=lambda kv: kv[1])[0]


@dataclasses.dataclass(frozen=True)
class ComputeModel:
    """Per-process compute time for a distributed SGD iteration.

    :meth:`share_iteration_time` depends on ``(B, P)`` only: model,
    domain and batch splits over ``P`` processes all give each process a
    ``1/P`` share of the iteration's flops, which is how the paper
    scales measured compute across grids.
    """

    table: EpochTimeTable
    #: Smallest local batch used for table lookup.  Local batches below
    #: one sample (possible only transiently in sweeps) clamp here.
    min_local_batch: float = 1.0

    def share_iteration_time(self, global_batch: float, p: int) -> float:
        """Per-process compute for an even ``1/P`` share of the iteration.

        All grids over the same ``P`` processes perform the same total
        work per iteration (``B`` samples through the full model), so —
        following the paper's use of measured data "for cases with the
        same computational workload" — the compute bar depends only on
        ``(B, P)``: each process runs a ``B/P``-sample-equivalent share
        at the hardware efficiency of that local size.  For ``P > B``
        (the Fig. 10 regime) the share drops below one sample and the
        per-sample efficiency clamps at the ``b = 1`` table entry.
        """
        if p <= 0:
            raise ConfigurationError(f"P must be positive, got {p}")
        if global_batch <= 0:
            raise ConfigurationError(f"global batch must be positive, got {global_batch}")
        b_eff = max(global_batch / p, self.min_local_batch)
        per_sample = self.table.iteration_time(b_eff) / b_eff
        return (global_batch / p) * per_sample

    @classmethod
    def knl_alexnet(cls) -> "ComputeModel":
        return cls(EpochTimeTable.knl_alexnet())
