"""Memoized, vectorized strategy search (see docs/SEARCH.md).

The paper's evaluation is a search over ``Pr x Pc`` grid factorizations
per ``(P, B)`` point (Eqs. 3/4/8/9).  :mod:`repro.core.optimizer` scores
each candidate from scratch; this package makes that hot path fast
without changing a single answer:

* :mod:`repro.search.cache` — an explicit, inspectable memo of the
  per-layer cost kernels keyed on ``(layer, placement, grid, batch,
  machine)``, with hit/miss counters wired into
  :mod:`repro.telemetry.metrics`;
* :mod:`repro.search.tables` — whole grid enumerations evaluated at
  once as vectorized numpy cost tables, bit-identical to the scalar
  formulas;
* :mod:`repro.search.engine` — a drop-in :class:`SearchEngine` whose
  ``evaluate_grids`` / ``best_strategy`` return bit-identical results
  to the serial :mod:`repro.core.optimizer` path;
* :mod:`repro.search.sweeps` — multi-point sweeps (strong/weak scaling,
  Pareto frontier, machine sensitivity), evaluated in-process in input
  order on one engine.

``benchmarks/bench_search.py`` gates the engine's cold-cache speedup
over the serial path against ``benchmarks/BENCH_search.json``.
"""

from repro.search.cache import CacheStats, CostCache
from repro.search.engine import SearchEngine, default_engine
from repro.search.sweeps import (
    SensitivityPoint,
    comm_memory_frontier,
    machine_sensitivity,
    strong_scaling_curve,
    weak_scaling_curve,
)
from repro.search.tables import GridCostTable, family_cost_table, per_layer_cost_table

__all__ = [
    "CacheStats",
    "CostCache",
    "GridCostTable",
    "SearchEngine",
    "SensitivityPoint",
    "comm_memory_frontier",
    "default_engine",
    "family_cost_table",
    "machine_sensitivity",
    "per_layer_cost_table",
    "strong_scaling_curve",
    "weak_scaling_curve",
]
