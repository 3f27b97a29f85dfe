"""Scaling-curve sweeps over process counts (strong) and batch sizes (weak).

Where :mod:`repro.core.optimizer` scores the grids of a *single*
``(P, B)`` point (one subfigure), this module strings points into the
scaling curves the paper's narrative draws across subfigures: epoch
time, speedup and parallel efficiency of the best integrated strategy
versus pure batch parallelism as ``P`` grows.

The per-point evaluation (:func:`evaluate_scaling_point`) and the table
builders are exposed separately so :mod:`repro.search.sweeps` can score
the points on a :class:`~repro.search.SearchEngine` and still produce
byte-identical tables.  :func:`strong_scaling_curve` is the serial
oracle the engine-backed curves are checked against; the weak-scaling
curve exists only engine-backed
(:func:`repro.search.sweeps.weak_scaling_curve`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.optimizer import best_strategy
from repro.core.results import ResultTable
from repro.core.simulate import simulate_epoch
from repro.core.strategy import ProcessGrid, Strategy
from repro.errors import ConfigurationError
from repro.machine.compute import ComputeModel
from repro.machine.params import MachineParams
from repro.nn.network import NetworkSpec

__all__ = [
    "ScalingPoint",
    "evaluate_scaling_point",
    "strong_scaling_table",
    "weak_scaling_table",
    "strong_scaling_curve",
]


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    processes: int
    batch: float
    best_label: str
    best_total_s: float
    pure_batch_total_s: Optional[float]

    @property
    def speedup_vs_pure_batch(self) -> Optional[float]:
        """Pure-batch epoch time over the best strategy's, or ``None``.

        ``None`` when pure batch is infeasible (``P > B``) or when the
        best epoch time is zero (a degenerate point — e.g. a
        single-process run under a zero-cost compute model — where the
        ratio is undefined rather than infinite).
        """
        if self.pure_batch_total_s is None or self.best_total_s == 0:
            return None
        return self.pure_batch_total_s / self.best_total_s

    def parallel_efficiency(self, base: "ScalingPoint") -> Optional[float]:
        """Scaling efficiency relative to ``base`` (usually the first point).

        ``(T_base * P_base) / (T_this * P_this)``; ``None`` when this
        point's epoch time is zero (the ratio is undefined).
        """
        if self.best_total_s == 0:
            return None
        return (base.best_total_s * base.processes) / (
            self.best_total_s * self.processes
        )


def _pure_batch_total(
    network: NetworkSpec,
    batch: float,
    p: int,
    machine: MachineParams,
    compute: ComputeModel,
    dataset_size: Optional[int],
    search=None,
) -> Optional[float]:
    if p > batch:
        return None  # the pure-batch scaling limit (Section 2.4)
    simulate = simulate_epoch if search is None else search.simulate_epoch
    point = simulate(
        network,
        batch,
        Strategy.same_grid_model(network, ProcessGrid(1, p)),
        machine,
        compute,
        dataset_size=dataset_size,
    )
    return point.total_epoch


def evaluate_scaling_point(
    network: NetworkSpec,
    batch: float,
    p: int,
    machine: MachineParams,
    compute: ComputeModel,
    *,
    dataset_size: Optional[int] = None,
    search=None,
    **search_kwargs,
) -> ScalingPoint:
    """Score one ``(P, B)`` point: best strategy + pure-batch baseline.

    ``search`` is any object exposing ``best_strategy`` /
    ``simulate_epoch`` with the :mod:`repro.core.optimizer` signatures
    (e.g. a :class:`repro.search.SearchEngine`); ``None`` uses the
    serial module functions.  Both produce bit-identical points.
    """
    best = best_strategy if search is None else search.best_strategy
    choice = best(
        network, batch, p, machine, compute,
        dataset_size=dataset_size, **search_kwargs,
    )
    pure = _pure_batch_total(
        network, batch, p, machine, compute, dataset_size, search
    )
    return ScalingPoint(
        processes=p,
        batch=batch,
        best_label=choice.strategy.describe(),
        best_total_s=choice.total_epoch,
        pure_batch_total_s=pure,
    )


def strong_scaling_table(
    network: NetworkSpec, batch: float, points: Sequence[ScalingPoint]
) -> ResultTable:
    """The printable strong-scaling table for already-evaluated points."""
    table = ResultTable(f"Strong scaling, B = {batch} ({network.name})")
    base = points[0] if points else None
    for point in points:
        efficiency = point.parallel_efficiency(base) if base is not None else None
        table.add_row(
            P=point.processes,
            best_strategy=point.best_label,
            epoch_s=point.best_total_s,
            pure_batch_s=point.pure_batch_total_s,
            speedup_vs_batch=point.speedup_vs_pure_batch,
            parallel_efficiency=(
                round(efficiency, 3) if efficiency is not None else None
            ),
        )
    return table


def weak_scaling_table(
    network: NetworkSpec, points: Sequence[ScalingPoint]
) -> ResultTable:
    """The printable weak-scaling table for already-evaluated points."""
    table = ResultTable(f"Weak scaling ({network.name})")
    for point in points:
        table.add_row(
            P=point.processes,
            B=int(point.batch),
            best_strategy=point.best_label,
            epoch_s=point.best_total_s,
            pure_batch_s=point.pure_batch_total_s,
            speedup_vs_batch=point.speedup_vs_pure_batch,
        )
    return table


def strong_scaling_curve(
    network: NetworkSpec,
    batch: float,
    processes: Sequence[int],
    machine: MachineParams,
    compute: ComputeModel,
    *,
    dataset_size: Optional[int] = None,
    search=None,
    **search_kwargs,
) -> Tuple[List[ScalingPoint], ResultTable]:
    """Fixed ``B``, growing ``P`` (the Fig. 6/7/10 axis, joined up).

    Returns the points plus a ready-to-print table with the best
    strategy, its epoch time, the pure-batch baseline (where feasible),
    the speedup over it, and the parallel efficiency relative to the
    first point.
    """
    if not processes:
        raise ConfigurationError("need at least one process count")
    points = [
        evaluate_scaling_point(
            network, batch, p, machine, compute,
            dataset_size=dataset_size, search=search, **search_kwargs,
        )
        for p in processes
    ]
    return points, strong_scaling_table(network, batch, points)

