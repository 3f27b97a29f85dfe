"""Multi-point sweeps on the search engine.

Strong/weak scaling curves, the Pareto frontier, and machine-parameter
sensitivity all evaluate many independent points, each of which is a
full grid-and-placement search.  Every point is scored in-process, in
input order, on one :class:`~repro.search.engine.SearchEngine` (the
caller's ``engine=``, or the shared
:func:`~repro.search.engine.default_engine`), so the output is
byte-identical to the serial :mod:`repro.core` path and later points
reuse the cost kernels earlier ones cached.  Domain errors
(:class:`~repro.errors.StrategyError`) propagate as they do serially.

A cold 216-point sweep takes about 0.3 s, less than starting a process
pool costs, so there is no pool.  ``jobs=`` is an inert compatibility
keyword of the curve and frontier functions: ``None`` or ``1`` is
accepted, any other value is a :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.optimizer import enumerate_grids
from repro.core.pareto import (
    ParetoPoint,
    frontier_table,
    grid_candidates,
    pareto_filter,
)
from repro.core.results import ResultTable
from repro.core.strategy import ProcessGrid, Strategy
from repro.core import sweep as core_sweep
from repro.core.sweep import ScalingPoint, evaluate_scaling_point, weak_scaling_table
from repro.errors import ConfigurationError
from repro.machine.compute import ComputeModel
from repro.machine.params import MachineParams
from repro.nn.network import NetworkSpec
from repro.search.engine import SearchEngine, default_engine

__all__ = [
    "SensitivityPoint",
    "strong_scaling_curve",
    "weak_scaling_curve",
    "comm_memory_frontier",
    "machine_sensitivity",
]


def _search(engine: Optional[SearchEngine], jobs: Optional[int] = None) -> SearchEngine:
    """The engine a sweep runs on, after checking the inert ``jobs``."""
    if jobs is not None and jobs != 1:
        raise ConfigurationError(
            f"jobs={jobs!r}: the process-pool sweep was removed; "
            "sweeps run in-process (pass jobs=None or 1, or omit it)"
        )
    return engine if engine is not None else default_engine()


def strong_scaling_curve(
    network: NetworkSpec,
    batch: float,
    processes: Sequence[int],
    machine: MachineParams,
    compute: ComputeModel,
    *,
    dataset_size: Optional[int] = None,
    jobs: Optional[int] = None,
    engine: Optional[SearchEngine] = None,
    **search_kwargs,
) -> Tuple[List[ScalingPoint], ResultTable]:
    """Engine-backed :func:`repro.core.sweep.strong_scaling_curve`."""
    return core_sweep.strong_scaling_curve(
        network, batch, processes, machine, compute,
        dataset_size=dataset_size, search=_search(engine, jobs), **search_kwargs,
    )


def weak_scaling_curve(
    network: NetworkSpec,
    pairs: Sequence[Tuple[int, float]],
    machine: MachineParams,
    compute: ComputeModel,
    *,
    dataset_size: Optional[int] = None,
    jobs: Optional[int] = None,
    engine: Optional[SearchEngine] = None,
    **search_kwargs,
) -> Tuple[List[ScalingPoint], ResultTable]:
    """``(P, B)`` growing together (the Fig. 9 axis, joined up)."""
    search = _search(engine, jobs)
    if not pairs:
        raise ConfigurationError("need at least one (P, B) pair")
    points = [
        evaluate_scaling_point(
            network, batch, p, machine, compute,
            dataset_size=dataset_size, search=search, **search_kwargs,
        )
        for p, batch in pairs
    ]
    return points, weak_scaling_table(network, points)


def comm_memory_frontier(
    network: NetworkSpec,
    batch: float,
    p: int,
    machine: MachineParams,
    *,
    allow_domain: bool = True,
    jobs: Optional[int] = None,
    engine: Optional[SearchEngine] = None,
) -> Tuple[List[ParetoPoint], ResultTable]:
    """Engine-backed :func:`repro.core.pareto.comm_memory_frontier`.

    Grids are scored in enumeration order and their candidates
    concatenated before the frontier filter, so the result is identical
    to the serial single pass.
    """
    search = _search(engine, jobs)
    candidates = [
        point
        for grid in enumerate_grids(p, batch=batch)
        for point in grid_candidates(
            network, batch, grid, machine,
            allow_domain=allow_domain, search=search,
        )
    ]
    frontier = pareto_filter(candidates)
    return frontier, frontier_table(network, batch, p, candidates, frontier)


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """Best strategy and pure-batch baseline at one (alpha, beta) cell."""

    alpha_us: float
    bandwidth_gbps: float
    best_label: str
    epoch_s: float
    pure_batch_s: float

    @property
    def speedup(self) -> Optional[float]:
        """Pure-batch over best epoch time; ``None`` when degenerate."""
        if self.epoch_s == 0:
            return None
        return self.pure_batch_s / self.epoch_s


def machine_sensitivity(
    network: NetworkSpec,
    compute: ComputeModel,
    machines: Sequence[MachineParams],
    *,
    p: int,
    batch: float,
    dataset_size: Optional[int] = None,
    engine: Optional[SearchEngine] = None,
    **search_kwargs,
) -> List[SensitivityPoint]:
    """Best strategy vs pure batch across a set of machine parameters.

    Returns one :class:`SensitivityPoint` per entry of ``machines``, in
    input order.  Each machine gets its own cache key (the cache keys
    include the machine's cost-relevant fields), so a derated or
    re-parameterized machine can never be served stale costs.
    """
    search = _search(engine)
    if not machines:
        raise ConfigurationError("need at least one machine")
    points = []
    for machine in machines:
        choice = search.best_strategy(
            network, batch, p, machine, compute,
            dataset_size=dataset_size, **search_kwargs,
        )
        pure = search.simulate_epoch(
            network,
            batch,
            Strategy.same_grid_model(network, ProcessGrid(1, p)),
            machine,
            compute,
            dataset_size=dataset_size,
        )
        points.append(
            SensitivityPoint(
                alpha_us=machine.alpha * 1e6,
                bandwidth_gbps=1.0 / (machine.beta_per_byte * 1e9),
                best_label=choice.strategy.describe(),
                epoch_s=choice.total_epoch,
                pure_batch_s=pure.total_epoch,
            )
        )
    return points
