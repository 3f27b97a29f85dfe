"""The memoized strategy-search engine.

:class:`SearchEngine` is a drop-in, answer-preserving replacement for
the hot entry points of :mod:`repro.core.optimizer` — ``evaluate_grids``
and ``best_strategy`` — plus cached variants of ``integrated_cost`` /
``simulate_epoch`` and the per-layer placement optimum.  Three
mechanisms make it fast:

1. per-layer cost kernels are memoized in a :class:`~repro.search.cache.
   CostCache` (the per-layer optimizer alone re-scores each layer
   ``O(L)`` times per grid through the serial path);
2. the fixed strategy families are evaluated over the whole grid
   enumeration at once via :func:`~repro.search.tables.family_cost_table`
   (vectorized numpy columns) and only the winning grid is materialized
   into a full :class:`~repro.core.simulate.SimulationPoint`;
3. compute-model lookups are memoized per ``(B, P)``.

Every result is **bit-identical** to the serial path: the family order,
tie-breaking (first strictly-smallest wins), feasibility skips, and the
floating-point value of every reported number match
:func:`repro.core.optimizer.best_strategy` exactly.  The randomized
test-suite properties in ``tests/test_randomized.py`` enforce this.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.costs import CostBreakdown
from repro.core.memory import memory_footprint
from repro.core.optimizer import GridChoice, StrategyFamily, enumerate_grids, family_specs
from repro.core.simulate import IterationCost, SimulationPoint
from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.errors import ConfigurationError, StrategyError
from repro.machine.compute import ComputeModel
from repro.machine.params import MachineParams
from repro.nn.network import NetworkSpec
from repro.search.cache import CacheStats, CostCache
from repro.search.tables import GridCostTable, family_cost_table, per_layer_cost_table
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["SearchEngine", "default_engine"]

#: Placement vectors of the fixed families, by spec name.
_FAMILY_PLACEMENTS = {
    "same_grid_model": lambda w: Placement.MODEL,
    "conv_batch_fc_model": lambda w: Placement.BATCH if w.is_conv else Placement.MODEL,
    "conv_domain_fc_model": lambda w: Placement.DOMAIN if w.is_conv else Placement.MODEL,
}


class SearchEngine:
    """Cached + vectorized strategy search over grids and placements.

    Parameters
    ----------
    cache:
        The :class:`CostCache` to use; a fresh one is created when
        omitted.  Sharing a cache across engines (or experiment runs)
        shares the memoized kernels.
    metrics:
        Convenience: when ``cache`` is omitted, a registry to wire the
        new cache's hit/miss counters into.
    """

    def __init__(
        self,
        cache: Optional[CostCache] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cache = cache if cache is not None else CostCache(metrics=metrics)

    # -- cached cost / simulation primitives --------------------------------

    def integrated_cost(
        self,
        network: NetworkSpec,
        batch: float,
        strategy: Strategy,
        machine: MachineParams,
    ) -> CostBreakdown:
        """Cached :func:`repro.core.costs.integrated_cost` (same errors)."""
        strategy.check_matches(network)
        if batch <= 0:
            raise StrategyError(f"batch size must be positive, got {batch}")
        if strategy.grid.pc > batch:
            raise StrategyError(
                f"batch {batch} cannot be split over Pc={strategy.grid.pc} "
                "(fewer than one sample per batch group); use domain or model "
                "parallelism to scale beyond the batch size (paper Section 2.4)"
            )
        lookup = self.cache.terms_lookup(batch, strategy.grid, machine)
        terms = []
        for layer, placement in zip(network.weighted_layers, strategy.placements):
            terms.extend(lookup(layer, placement))
        return CostBreakdown(tuple(terms))

    def simulate_epoch(
        self,
        network: NetworkSpec,
        batch: float,
        strategy: Strategy,
        machine: MachineParams,
        compute: ComputeModel,
        *,
        dataset_size: Optional[int] = None,
        overlap: bool = False,
    ) -> SimulationPoint:
        """Cached :func:`repro.core.simulate.simulate_epoch`."""
        n = dataset_size if dataset_size is not None else compute.table.dataset_size
        if n <= 0:
            raise ConfigurationError(f"dataset size must be positive, got {n}")
        comm = self.integrated_cost(network, batch, strategy, machine)
        compute_time = self.cache.compute_time(compute, batch, strategy.grid.p)
        iteration = IterationCost(strategy, batch, comm, compute_time, overlap)
        return SimulationPoint(
            strategy=strategy,
            batch=batch,
            processes=strategy.grid.p,
            iterations_per_epoch=n / batch,
            iteration=iteration,
        )

    # -- grid enumeration ----------------------------------------------------

    def evaluate_grids(
        self,
        network: NetworkSpec,
        batch: float,
        p: int,
        machine: MachineParams,
        compute: ComputeModel,
        *,
        family: StrategyFamily = Strategy.same_grid_model,
        overlap: bool = False,
        max_pc: Optional[int] = None,
        dataset_size: Optional[int] = None,
    ) -> Tuple[SimulationPoint, ...]:
        """Cached :func:`repro.core.optimizer.evaluate_grids` (full points)."""
        points: List[SimulationPoint] = []
        for grid in enumerate_grids(p, batch=batch, max_pc=max_pc):
            try:
                strategy = family(network, grid)
                point = self.simulate_epoch(
                    network,
                    batch,
                    strategy,
                    machine,
                    compute,
                    overlap=overlap,
                    dataset_size=dataset_size,
                )
            except StrategyError:
                continue
            points.append(point)
        if not points:
            raise StrategyError(f"no grid of P={p} admits the requested strategy family")
        return tuple(points)

    def family_table(
        self,
        network: NetworkSpec,
        batch: float,
        p: int,
        machine: MachineParams,
        compute: ComputeModel,
        *,
        placements: Tuple[Placement, ...],
        overlap: bool = False,
        max_pc: Optional[int] = None,
        dataset_size: Optional[int] = None,
    ) -> GridCostTable:
        """Vectorized cost table over every feasible grid of ``p``."""
        n = dataset_size if dataset_size is not None else compute.table.dataset_size
        if n <= 0:
            raise ConfigurationError(f"dataset size must be positive, got {n}")
        grids = enumerate_grids(p, batch=batch, max_pc=max_pc)
        return family_cost_table(
            network,
            batch,
            grids,
            machine,
            placements=placements,
            compute_time=self.cache.compute_time(compute, batch, p),
            iterations=n / batch,
            overlap=overlap,
        )

    # -- per-layer placement optimum ----------------------------------------

    def optimal_placements(
        self,
        network: NetworkSpec,
        batch: float,
        grid: ProcessGrid,
        machine: MachineParams,
        *,
        allow_domain: bool = True,
    ) -> Strategy:
        """Cached :func:`repro.core.optimizer.optimal_placements`.

        Scores each layer's candidate placements from the memoized
        per-layer kernels directly (the serial path rebuilds a whole
        trial strategy per candidate), preserving the candidate order
        and strict-improvement tie-breaking exactly.
        """
        if batch <= 0:
            raise StrategyError(f"batch must be positive, got {batch}")
        if grid.pc > batch:
            raise StrategyError(
                f"grid {grid} splits the batch {batch} over Pc={grid.pc} groups "
                "(fewer than one sample each)"
            )
        lookup = self.cache.terms_lookup(batch, grid, machine)
        placements: List[Placement] = []
        candidates_base = [Placement.MODEL, Placement.BATCH]
        for w in network.weighted_layers:
            candidates = list(candidates_base)
            if allow_domain and w.is_conv:
                candidates.append(Placement.DOMAIN)
            best_pl, best_cost = None, None
            for pl in candidates:
                if pl is Placement.BATCH and grid.p > batch:
                    continue  # pure batch infeasible past P = B
                terms = lookup(w, pl)
                # Left-to-right sum matches CostBreakdown.by_layer()'s
                # accumulation (0.0 when the layer has no terms).
                cost = 0.0
                for t in terms:
                    cost += t.cost.total
                if best_cost is None or cost < best_cost:
                    best_pl, best_cost = pl, cost
            if best_pl is None:
                raise StrategyError(
                    f"no feasible placement for layer {w.name!r} at grid {grid}, B={batch}"
                )
            placements.append(best_pl)
        return Strategy(grid, tuple(placements))

    # -- the full search ------------------------------------------------------

    def best_strategy(
        self,
        network: NetworkSpec,
        batch: float,
        p: int,
        machine: MachineParams,
        compute: ComputeModel,
        *,
        allow_domain: bool = True,
        conv_pure_batch: bool = False,
        overlap: bool = False,
        max_pc: Optional[int] = None,
        dataset_size: Optional[int] = None,
        max_memory_elements: Optional[float] = None,
        per_layer: bool = True,
    ) -> GridChoice:
        """Bit-identical :func:`repro.core.optimizer.best_strategy`.

        The fixed families are ranked through vectorized cost tables
        (only the winner per family is materialized); the per-layer
        optimum runs through the memoized kernels.  Family order,
        feasibility skips, the Section-4 memory filter, and first-wins
        tie-breaking all mirror the serial search.
        """
        specs = family_specs(
            network,
            allow_domain=allow_domain,
            conv_pure_batch=conv_pure_batch,
            per_layer=per_layer,
        )
        best: Optional[SimulationPoint] = None
        for name, family in specs:
            try:
                if name in _FAMILY_PLACEMENTS:
                    candidate = self._best_fixed_family(
                        network, batch, p, machine, compute,
                        family_name=name, overlap=overlap, max_pc=max_pc,
                        dataset_size=dataset_size,
                        max_memory_elements=max_memory_elements,
                    )
                else:
                    candidate = self._best_per_layer(
                        network, batch, p, machine, compute,
                        allow_domain=allow_domain, overlap=overlap, max_pc=max_pc,
                        dataset_size=dataset_size,
                        max_memory_elements=max_memory_elements,
                    )
            except StrategyError:
                continue
            if best is None or candidate.total_epoch < best.total_epoch:
                best = candidate
        if best is None:
            raise StrategyError(
                f"no feasible strategy for P={p}, B={batch} on {network.name!r}"
                + (
                    f" within {max_memory_elements:.3g} elements of memory"
                    if max_memory_elements is not None
                    else ""
                )
            )
        return GridChoice(best)

    def _best_fixed_family(
        self,
        network: NetworkSpec,
        batch: float,
        p: int,
        machine: MachineParams,
        compute: ComputeModel,
        *,
        family_name: str,
        overlap: bool,
        max_pc: Optional[int],
        dataset_size: Optional[int],
        max_memory_elements: Optional[float],
    ) -> SimulationPoint:
        pick = _FAMILY_PLACEMENTS[family_name]
        placements = tuple(pick(w) for w in network.weighted_layers)
        table = self.family_table(
            network, batch, p, machine, compute,
            placements=placements, overlap=overlap, max_pc=max_pc,
            dataset_size=dataset_size,
        )
        if max_memory_elements is None:
            idx = table.argmin_epoch()
        else:
            feasible = [
                i
                for i, grid in enumerate(table.grids)
                if memory_footprint(network, batch, Strategy(grid, placements)).total
                <= max_memory_elements
            ]
            if not feasible:
                raise StrategyError("no grid satisfies the memory cap")
            idx = min(feasible, key=lambda i: table.epoch_total[i])
        return self.simulate_epoch(
            network,
            batch,
            Strategy(table.grids[idx], placements),
            machine,
            compute,
            dataset_size=dataset_size,
            overlap=overlap,
        )

    def _best_per_layer(
        self,
        network: NetworkSpec,
        batch: float,
        p: int,
        machine: MachineParams,
        compute: ComputeModel,
        *,
        allow_domain: bool,
        overlap: bool,
        max_pc: Optional[int],
        dataset_size: Optional[int],
        max_memory_elements: Optional[float],
    ) -> SimulationPoint:
        n = dataset_size if dataset_size is not None else compute.table.dataset_size
        if n <= 0:
            raise ConfigurationError(f"dataset size must be positive, got {n}")
        grids = enumerate_grids(p, batch=batch, max_pc=max_pc)
        table, placements = per_layer_cost_table(
            network, batch, grids, machine,
            allow_domain=allow_domain,
            compute_time=self.cache.compute_time(compute, batch, p),
            iterations=n / batch,
            overlap=overlap,
        )
        if max_memory_elements is None:
            idx = table.argmin_epoch()
        else:
            feasible = [
                i
                for i in range(len(grids))
                if memory_footprint(
                    network, batch, Strategy(grids[i], placements[i])
                ).total
                <= max_memory_elements
            ]
            if not feasible:
                raise StrategyError("no grid satisfies the memory cap")
            idx = min(feasible, key=lambda i: table.epoch_total[i])
        return self.simulate_epoch(
            network,
            batch,
            Strategy(grids[idx], placements[idx]),
            machine,
            compute,
            dataset_size=dataset_size,
            overlap=overlap,
        )

    # -- inspection ----------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        return self.cache.stats()


_DEFAULT_ENGINE: Optional[SearchEngine] = None


def default_engine() -> SearchEngine:
    """The process-wide shared engine (one cache across experiment runs)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = SearchEngine()
    return _DEFAULT_ENGINE
