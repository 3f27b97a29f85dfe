"""Core library: the paper's integrated-parallelism theory.

This package implements the primary contribution of the paper:

* the ``Pr x Pc`` process-grid abstraction and per-layer placement
  (:mod:`~repro.core.strategy`),
* the closed-form communication costs of pure model (Eq. 3), pure batch
  (Eq. 4), pure domain (Eq. 7), integrated model+batch 1.5D (Eq. 8) and
  integrated model+batch+domain (Eq. 9) parallelism
  (:mod:`~repro.core.costs`),
* the batch-vs-model crossover ratio, Eq. 5 (:mod:`~repro.core.ratio`),
* the grid-redistribution cost, Eq. 6 (:mod:`~repro.core.redistribution`),
* the memory-replication model and the 2D SUMMA comparison of Section 4
  (:mod:`~repro.core.memory`, :mod:`~repro.core.summa`),
* communication/computation overlap (:mod:`~repro.core.overlap`),
* strategy search (:mod:`~repro.core.optimizer`) and the epoch-time
  simulation driver (:mod:`~repro.core.simulate`).
"""

from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.core.costs import (
    CostBreakdown,
    CostTerm,
    batch_parallel_cost,
    domain_parallel_cost,
    integrated_cost,
    integrated_mb_cost,
    model_parallel_cost,
)
from repro.core.ratio import batch_model_volume_ratio, crossover_batch_size
from repro.core.redistribution import redistribution_cost, redistribution_relative_overhead
from repro.core.memory import MemoryFootprint, memory_footprint
from repro.core.summa import (
    summa_stationary_a_volume,
    summa_stationary_c_volume,
    volume_1p5d,
    compare_1p5d_vs_summa,
)
from repro.core.overlap import overlapped_time, overlapped_time_from_breakdown
from repro.core.optimizer import (
    GridChoice,
    best_strategy,
    enumerate_grids,
    evaluate_grids,
    optimal_placements,
)
from repro.core.simulate import IterationCost, SimulationPoint, simulate_iteration, simulate_epoch
from repro.core.pareto import ParetoPoint, comm_memory_frontier
from repro.core.plan import IterationPlan, PlanStep, build_iteration_plan
from repro.core.results import ResultTable
from repro.core.sweep import ScalingPoint, strong_scaling_curve

__all__ = [
    "Placement",
    "ProcessGrid",
    "Strategy",
    "CostBreakdown",
    "CostTerm",
    "model_parallel_cost",
    "batch_parallel_cost",
    "domain_parallel_cost",
    "integrated_mb_cost",
    "integrated_cost",
    "batch_model_volume_ratio",
    "crossover_batch_size",
    "redistribution_cost",
    "redistribution_relative_overhead",
    "MemoryFootprint",
    "memory_footprint",
    "summa_stationary_a_volume",
    "summa_stationary_c_volume",
    "volume_1p5d",
    "compare_1p5d_vs_summa",
    "overlapped_time",
    "overlapped_time_from_breakdown",
    "GridChoice",
    "enumerate_grids",
    "evaluate_grids",
    "best_strategy",
    "optimal_placements",
    "IterationCost",
    "SimulationPoint",
    "simulate_iteration",
    "simulate_epoch",
    "ResultTable",
    "ParetoPoint",
    "comm_memory_frontier",
    "IterationPlan",
    "PlanStep",
    "build_iteration_plan",
    "ScalingPoint",
    "strong_scaling_curve",
]
