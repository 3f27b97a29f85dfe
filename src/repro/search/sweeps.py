"""Multi-point sweeps over an optional process pool.

Strong/weak scaling curves, the Pareto frontier, and machine-parameter
sensitivity all evaluate many independent points — each of which is a
full grid-and-placement search.  This module fans those points out over
a :class:`~concurrent.futures.ProcessPoolExecutor` and merges the
results **deterministically**: every result is written into a slot
indexed by its input position, so the output order (and therefore every
derived table) is independent of worker completion order, and — because
each point is evaluated by the bit-identical engine — byte-identical to
the serial path.

``jobs`` semantics everywhere: ``None``/``1`` evaluates in-process
through the shared :func:`~repro.search.engine.default_engine` (fast
for small sweeps, reuses the warm cache), ``0`` means one worker per
CPU, ``N > 1`` uses ``N`` workers.  Domain errors
(:class:`~repro.errors.StrategyError`) propagate exactly as they do
serially.  A pool *infrastructure* failure
(:class:`~concurrent.futures.process.BrokenProcessPool`, ``OSError``,
:class:`pickle.PicklingError` — a sandbox without ``fork``, a payload
that does not pickle) does not lose the sweep: the points are
re-evaluated in-process, with identical results, and one
:class:`RuntimeWarning` names the exception and the worker count so
the lost parallelism is never silent.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.optimizer import enumerate_grids
from repro.core.pareto import (
    ParetoPoint,
    frontier_table,
    grid_candidates,
    pareto_filter,
)
from repro.core.results import ResultTable
from repro.core.strategy import ProcessGrid, Strategy
from repro.core.sweep import (
    ScalingPoint,
    evaluate_scaling_point,
    strong_scaling_table,
    weak_scaling_table,
)
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


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize the ``jobs`` argument to a worker count (>= 1)."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _map_ordered(task: Callable, payloads: Sequence, jobs: Optional[int]) -> List:
    """Evaluate ``task`` over ``payloads``, result ``i`` from payload ``i``.

    With more than one worker the tasks run across a process pool;
    results land in their input slot regardless of completion order, so
    the merge is deterministic by construction.  Domain errors raised
    by a task propagate; a pool-infrastructure failure is reported as
    one :class:`RuntimeWarning` and the payloads are evaluated here.
    """
    payloads = list(payloads)
    workers = _resolve_jobs(jobs)
    if workers <= 1 or len(payloads) <= 1:
        return [task(payload) for payload in payloads]
    workers = min(workers, len(payloads))
    try:
        results: List = [None] * len(payloads)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(task, payload): index
                for index, payload in enumerate(payloads)
            }
            for future in as_completed(futures):
                results[futures[future]] = future.result()
        return results
    except (BrokenProcessPool, OSError, pickle.PicklingError) as exc:
        # Pool infrastructure failed (sandbox, fork limits, pickling);
        # the points themselves are fine — evaluate them here instead.
        warnings.warn(
            f"process pool with {workers} workers failed ({exc!r}); "
            f"evaluating {len(payloads)} points serially instead",
            RuntimeWarning,
            stacklevel=2,
        )
        return [task(payload) for payload in payloads]


# -- workers (module level: must pickle by reference) ------------------------


def _scaling_point_task(payload) -> ScalingPoint:
    network, batch, p, machine, compute, dataset_size, kwargs = payload
    return evaluate_scaling_point(
        network, batch, p, machine, compute,
        dataset_size=dataset_size, search=default_engine(), **kwargs,
    )


def _pareto_task(payload) -> List[ParetoPoint]:
    network, batch, grid, machine, allow_domain = payload
    return grid_candidates(
        network, batch, grid, machine,
        allow_domain=allow_domain, search=default_engine(),
    )


def _sensitivity_task(payload) -> "SensitivityPoint":
    network, batch, p, machine, compute, dataset_size, kwargs = payload
    engine = default_engine()
    choice = engine.best_strategy(
        network, batch, p, machine, compute, dataset_size=dataset_size, **kwargs
    )
    pure = engine.simulate_epoch(
        network,
        batch,
        Strategy.same_grid_model(network, ProcessGrid(1, p)),
        machine,
        compute,
        dataset_size=dataset_size,
    )
    return SensitivityPoint(
        alpha_us=machine.alpha * 1e6,
        bandwidth_gbps=1.0 / (machine.beta_per_byte * 1e9),
        best_label=choice.strategy.describe(),
        epoch_s=choice.total_epoch,
        pure_batch_s=pure.total_epoch,
    )


# -- sweeps ------------------------------------------------------------------


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
    if not processes:
        raise ConfigurationError("need at least one process count")
    if _resolve_jobs(jobs) <= 1:
        search = engine if engine is not None else default_engine()
        points = [
            evaluate_scaling_point(
                network, batch, p, machine, compute,
                dataset_size=dataset_size, search=search, **search_kwargs,
            )
            for p in processes
        ]
    else:
        payloads = [
            (network, batch, p, machine, compute, dataset_size, search_kwargs)
            for p in processes
        ]
        points = _map_ordered(_scaling_point_task, payloads, jobs)
    return points, strong_scaling_table(network, batch, points)


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
    """Engine-backed :func:`repro.core.sweep.weak_scaling_curve`."""
    if not pairs:
        raise ConfigurationError("need at least one (P, B) pair")
    if _resolve_jobs(jobs) <= 1:
        search = engine if engine is not None else default_engine()
        points = [
            evaluate_scaling_point(
                network, batch, p, machine, compute,
                dataset_size=dataset_size, search=search, **search_kwargs,
            )
            for p, batch in pairs
        ]
    else:
        payloads = [
            (network, batch, p, machine, compute, dataset_size, search_kwargs)
            for p, batch in pairs
        ]
        points = _map_ordered(_scaling_point_task, payloads, jobs)
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

    Grids are scored independently (possibly in parallel) and
    concatenated in enumeration order before the frontier filter, so
    the result is identical to the serial single-pass.
    """
    grids = enumerate_grids(p, batch=batch)
    if _resolve_jobs(jobs) <= 1:
        search = engine if engine is not None else default_engine()
        per_grid = [
            grid_candidates(
                network, batch, grid, machine,
                allow_domain=allow_domain, search=search,
            )
            for grid in grids
        ]
    else:
        payloads = [
            (network, batch, grid, machine, allow_domain) for grid in grids
        ]
        per_grid = _map_ordered(_pareto_task, payloads, jobs)
    candidates = [pt for chunk in per_grid for pt in chunk]
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
    jobs: Optional[int] = None,
    engine: Optional[SearchEngine] = None,
    **search_kwargs,
) -> List[SensitivityPoint]:
    """Best strategy vs pure batch across a set of machine parameters.

    Returns one :class:`SensitivityPoint` per entry of ``machines``, in
    input order.  Each machine gets its own cache key (the cache keys
    include the machine's cost-relevant fields), so a derated or
    re-parameterized machine can never be served stale costs.
    """
    if not machines:
        raise ConfigurationError("need at least one machine")
    payloads = [
        (network, batch, p, machine, compute, dataset_size, search_kwargs)
        for machine in machines
    ]
    if _resolve_jobs(jobs) <= 1:
        shared = engine if engine is not None else default_engine()

        def run_inline(payload):
            network_, batch_, p_, machine_, compute_, ds, kwargs = payload
            choice = shared.best_strategy(
                network_, batch_, p_, machine_, compute_,
                dataset_size=ds, **kwargs,
            )
            pure = shared.simulate_epoch(
                network_,
                batch_,
                Strategy.same_grid_model(network_, ProcessGrid(1, p_)),
                machine_,
                compute_,
                dataset_size=ds,
            )
            return SensitivityPoint(
                alpha_us=machine_.alpha * 1e6,
                bandwidth_gbps=1.0 / (machine_.beta_per_byte * 1e9),
                best_label=choice.strategy.describe(),
                epoch_s=choice.total_epoch,
                pure_batch_s=pure.total_epoch,
            )

        return [run_inline(payload) for payload in payloads]
    return _map_ordered(_sensitivity_task, payloads, jobs)
