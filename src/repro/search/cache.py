"""Explicit memoization of the per-layer cost kernels.

The cost model is separable per layer (:func:`repro.core.costs.
layer_cost_terms`), and a strategy search revisits the same ``(layer,
placement, grid, batch, machine)`` combinations many times over — the
per-layer placement optimizer alone scores every layer under every
candidate placement for every grid.  :class:`CostCache` memoizes those
kernels behind an explicit, inspectable mapping rather than a hidden
``lru_cache``: hit/miss counters are first-class (and mirrored into a
:class:`~repro.telemetry.metrics.MetricsRegistry` when one is wired
in), entries can be enumerated, and the machine parameters are part of
every key so a changed :class:`~repro.machine.params.MachineParams`
can never be served stale costs.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.costs import CostTerm, layer_cost_terms
from repro.core.strategy import Placement, ProcessGrid
from repro.machine.compute import ComputeModel
from repro.machine.params import MachineParams
from repro.nn.network import WeightedLayer
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CacheStats", "CostCache", "machine_key", "compute_key"]

MachineKey = Tuple[float, float, int]
ComputeKey = Tuple[Tuple[Tuple[int, float], ...], int, float]


def machine_key(machine: MachineParams) -> MachineKey:
    """The fields of :class:`MachineParams` that affect communication cost.

    ``name`` and ``flops_peak`` are deliberately excluded — two machines
    that agree on ``(alpha, beta_per_byte, element_bytes)`` produce
    byte-identical communication costs.  Any change to these fields
    (e.g. :meth:`MachineParams.derated`) yields a new key, which is how
    the cache invalidates on machine changes.
    """
    return (machine.alpha, machine.beta_per_byte, machine.element_bytes)


def compute_key(compute: ComputeModel) -> ComputeKey:
    """The fields of :class:`ComputeModel` that determine iteration time."""
    table = compute.table
    return (table.entries, table.dataset_size, compute.min_local_batch)


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache's effectiveness."""

    hits: int
    misses: int
    term_entries: int
    compute_entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def entries(self) -> int:
        return self.term_entries + self.compute_entries

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CostCache:
    """Memo for per-layer communication terms and per-``(B, P)`` compute.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`; when
        given, every lookup increments the ``search.cache`` counter with
        ``kind`` (``terms`` / ``compute``) and ``event`` (``hit`` /
        ``miss``) labels, so cache behaviour shows up in the same
        exports as the rest of the telemetry subsystem.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._metrics = metrics
        self._terms: Dict[Tuple[Any, ...], Tuple[CostTerm, ...]] = {}
        self._compute: Dict[Tuple[Any, ...], float] = {}
        self._hits = 0
        self._misses = 0

    # -- memoized kernels ---------------------------------------------------

    def terms_lookup(
        self, batch: float, grid: ProcessGrid, machine: MachineParams
    ) -> Callable[[WeightedLayer, Placement], Tuple[CostTerm, ...]]:
        """Memoized :func:`repro.core.costs.layer_cost_terms` with
        ``(batch, grid, machine)`` bound.

        Infeasible combinations (e.g. a ``BATCH`` placement with
        ``P > B``) raise :class:`~repro.errors.StrategyError` exactly as
        the direct call does and are never cached.  A strategy's layers
        all share ``(batch, grid, machine)``, so callers walking a whole
        network take :func:`machine_key` and ``float(batch)`` once
        instead of once per layer.  The memo key is
        ``(layer, placement, float(batch), grid, machine_key)``.
        """
        batch_key, mkey = float(batch), machine_key(machine)
        terms, record = self._terms, self._record

        def lookup(layer: WeightedLayer, placement: Placement) -> Tuple[CostTerm, ...]:
            key = (layer, placement, batch_key, grid, mkey)
            try:
                value = terms[key]
            except KeyError:
                record(False, "terms")
                value = terms[key] = layer_cost_terms(layer, placement, batch, grid, machine)
                return value
            record(True, "terms")
            return value

        return lookup

    def compute_time(self, compute: ComputeModel, batch: float, p: int) -> float:
        """Memoized :meth:`ComputeModel.share_iteration_time`."""
        key = (compute_key(compute), float(batch), p)
        try:
            value = self._compute[key]
        except KeyError:
            self._record(False, "compute")
            value = compute.share_iteration_time(batch, p)
            self._compute[key] = value
            return value
        self._record(True, "compute")
        return value

    # -- inspection ---------------------------------------------------------

    def _record(self, hit: bool, kind: str) -> None:
        if hit:
            self._hits += 1
        else:
            self._misses += 1
        if self._metrics is not None:
            self._metrics.counter("search.cache", "strategy-search cache lookups").inc(
                1, kind=kind, event="hit" if hit else "miss"
            )

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            term_entries=len(self._terms),
            compute_entries=len(self._compute),
        )

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe history)."""
        self._terms.clear()
        self._compute.clear()

    def __len__(self) -> int:
        return len(self._terms) + len(self._compute)
