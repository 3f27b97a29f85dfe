"""Vectorized grid cost tables.

A strategy family over one ``(P, B)`` point evaluates the *same* layer
formulas for every grid factorization of ``P``; the serial path does it
one grid at a time through Python objects.  This module evaluates every
(layer, term, grid) at once — per-network layer columns
(:attr:`NetworkSpec.cost_columns <repro.nn.network.NetworkSpec.cost_columns>`)
broadcast against per-grid lanes, a constant number of numpy calls per
table however deep the network — and is **bit-identical** to the scalar
path by two rules:

* *association order*: every elementwise formula replicates the exact
  operation order of :mod:`repro.core.costs` /
  :mod:`repro.collectives.cost` (IEEE-754 double operations are
  deterministic, so ``beta * n * (p - 1) / p`` evaluated per lane equals
  the scalar expression);
* *sequential reduction*: the terms are laid out as matrix rows in the
  (layer, term) visit order of ``CostBreakdown.total``'s left-to-right
  sum, an exact ``0.0`` where a grid lacks the term, and reduced with
  ``cumsum`` — never ``np.sum``, whose pairwise reassociation rounds
  differently.

The test suite asserts exact (``==``) agreement of every column against
the serial breakdowns (``tests/test_randomized.py``) and pins a whole
sweep's digest (``tests/test_search_sweep_golden.py``); docs/SEARCH.md
section 2 has the layout.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro.collectives.cost import _log2ceil
from repro.core.overlap import BACKPROP_COMM_FRACTION, BACKPROP_COMPUTE_FRACTION
from repro.core.strategy import Placement, ProcessGrid
from repro.errors import StrategyError
from repro.machine.params import MachineParams
from repro.nn.network import LayerColumns, NetworkSpec

__all__ = ["GridCostTable", "family_cost_table", "per_layer_cost_table"]


@dataclasses.dataclass(frozen=True)
class GridCostTable:
    """Per-grid cost columns for one strategy family at one ``(P, B)``.

    All arrays have one entry per grid, in the order of ``grids``.  The
    aggregate columns are bit-identical to the corresponding
    :class:`~repro.core.costs.CostBreakdown` /
    :class:`~repro.core.simulate.SimulationPoint` properties evaluated
    serially on the same grids; ``model_comm`` and ``domain_comm`` are
    the sums of their two ``by_category()`` entries
    (``allgather_fwd + allreduce_dx``, ``halo_fwd + halo_bwd``).
    """

    grids: Tuple[ProcessGrid, ...]
    placements: Tuple[Placement, ...]
    comm_latency: np.ndarray
    comm_bandwidth: np.ndarray
    comm_total: np.ndarray
    batch_comm: np.ndarray
    model_comm: np.ndarray
    domain_comm: np.ndarray
    volume: np.ndarray
    compute_time: float
    iterations: float
    iter_total: np.ndarray
    epoch_total: np.ndarray

    @property
    def comm_epoch(self) -> np.ndarray:
        return self.comm_total * self.iterations

    @property
    def batch_comm_epoch(self) -> np.ndarray:
        return self.batch_comm * self.iterations

    def argmin_epoch(self) -> int:
        """Index of the cheapest grid (first on exact ties, like ``min``)."""
        return int(np.argmin(self.epoch_total))

    def __len__(self) -> int:
        return len(self.grids)


#: Row order of a term tensor's leading axis.
_LAT, _BW, _VOL, _TIME = range(4)
#: Placement codes of the per-layer choice arrays, in the serial
#: optimizer's candidate order.
_CODES = (Placement.MODEL, Placement.BATCH, Placement.DOMAIN)
_MODEL, _BATCH, _DOMAIN = range(3)
#: Per MODEL slot, the all-reduce's factor of 2 over the all-gather (Eq. 4).
_SLOT_FACTOR = np.array([[1.0], [2.0], [2.0]])


class _Lanes(NamedTuple):
    """One entry per grid: the arrays every layer formula broadcasts against."""

    p: int
    batch: float
    local_batch: np.ndarray  # (n,)   B / Pc
    pr: np.ndarray  # (n,)
    group: np.ndarray  # (3, n) group size of each MODEL slot: Pr, Pr, Pc
    rounds: np.ndarray  # (3, n) its latency rounds: log2 Pr, 2 log2 Pr, 2 log2 Pc


def _grid_lanes(grids: Sequence[ProcessGrid], batch: float) -> _Lanes:
    """Validate a grid enumeration and build its per-lane arrays."""
    if not grids:
        raise StrategyError("need at least one grid")
    if batch <= 0:
        raise StrategyError(f"batch size must be positive, got {batch}")
    prs = [g.pr for g in grids]
    pcs = [g.pc for g in grids]
    if max(pcs) > batch:
        raise StrategyError(
            f"batch {batch} cannot be split over Pc={next(pc for pc in pcs if pc > batch)} "
            "(fewer than one sample per batch group)"
        )
    p_values = {pr * pc for pr, pc in zip(prs, pcs)}
    if len(p_values) != 1:
        raise StrategyError(f"grids must share one process count, got P={sorted(p_values)}")
    log2_pr = [_log2ceil(pr) for pr in prs]
    group = np.array([prs, prs, pcs], dtype=np.float64)
    return _Lanes(
        p=p_values.pop(),
        batch=float(batch),
        local_batch=float(batch) / group[2],
        pr=group[0],
        group=group,
        rounds=np.array(
            [log2_pr, [2 * r for r in log2_pr], [2 * _log2ceil(pc) for pc in pcs]],
            dtype=np.float64,
        ),
    )


# -- term tensors --------------------------------------------------------------
#
# A placement's terms for every (layer, grid) at once: a float64 tensor
# of shape (4, L, 3, n) -- [latency, bandwidth, volume, time] x layer x
# term slot x grid.  No placement has more than three terms per layer,
# and the slots follow the serial visit order:
#
#   MODEL   allgather_fwd   allreduce_dx (not layer 1)   allreduce_dw over Pc
#   DOMAIN  halo_fwd        halo_bwd                     allreduce_dw over P
#   BATCH   --              --                           allreduce_dw over P
#
# so ``tensor.reshape(4, 3 * L, n)`` lists the terms in exactly the
# (layer, term) order ``CostBreakdown`` sums them in.  A term a grid
# lacks is an exact 0.0 -- the additive identity of these nonnegative
# finite costs -- so padding never changes a sum.  Every expression
# keeps the scalar code's association order (``beta * n * (p - 1) / p``
# is ``((beta * n) * (p - 1)) / p``): IEEE-754 operations are
# deterministic, so each lane equals the scalar evaluation bit for bit.


def _replicated_dw(cols: LayerColumns, p: int, machine: MachineParams) -> np.ndarray:
    """``allreduce_ring(p, |W_i|)`` for every layer, as ``(4, L, 1)``.

    The weight all-reduce of a fully replicated (DOMAIN or BATCH) layer
    spans all ``P`` processes: grid-independent, one value per layer.
    The volume is evaluated in exact integer arithmetic like the scalar
    ``2 * |W| * (p - 1) / p``.
    """
    out = np.zeros((4, len(cols.weight_counts), 1))
    if p > 1:
        out[_LAT] = machine.alpha * (2 * _log2ceil(p))
        out[_BW] = 2 * machine.beta * cols.weights * (p - 1) / p
        out[_VOL, :, 0] = [2 * w * (p - 1) / p for w in cols.weight_counts]
        out[_TIME] = out[_LAT] + out[_BW]
    return out


def _model_terms(cols: LayerColumns, lanes: _Lanes, machine: MachineParams) -> np.ndarray:
    """``_model_layer_terms`` (Eq. 8) for every layer and grid."""
    group, gm1 = lanes.group, lanes.group - 1
    size = np.empty((len(cols.conv), 3, group.shape[1]))
    size[:, :2] = lanes.local_batch * cols.activations  # Y_i all-gather, dX all-reduce
    size[:, 2] = cols.weights / lanes.pr  # dW all-reduce of |W_i| / Pr
    out = np.empty((4,) + size.shape)
    out[_LAT] = machine.alpha * lanes.rounds
    out[_BW] = (_SLOT_FACTOR * machine.beta) * size * gm1 / group
    out[_VOL] = _SLOT_FACTOR * size * gm1 / group
    present = np.broadcast_to(group > 1, size.shape).copy()
    present[cols.first, 1] = False  # no gradient flows past the first layer
    out[:_TIME] = np.where(present, out[:_TIME], 0.0)
    out[_TIME] = out[_LAT] + out[_BW]
    return out


def _domain_terms(
    cols: LayerColumns, lanes: _Lanes, machine: MachineParams, dw: np.ndarray
) -> np.ndarray:
    """``_domain_layer_terms`` (Eq. 9 ``LD``): two halos + the replicated dW."""
    halo = lanes.local_batch * cols.halo_width * cols.halo_channels * cols.halo_extent
    present = (lanes.pr > 1) & (halo > 0)  # 1x1 convolutions exchange nothing
    out = np.empty((4, len(cols.conv), 3, len(lanes.pr)))
    out[_LAT, :, :2] = np.where(present, machine.alpha, 0.0)
    out[_BW, :, :2] = np.where(present, machine.beta * halo, 0.0)
    out[_VOL, :, :2] = np.where(present, halo, 0.0)
    out[_TIME, :, :2] = out[_LAT, :, :2] + out[_BW, :, :2]
    out[:, :, 2] = dw
    return out


def _batch_terms(lanes: _Lanes, dw: np.ndarray) -> np.ndarray:
    """``_batch_layer_terms`` (Eq. 4): the replicated dW alone."""
    out = np.zeros((4, dw.shape[1], 3, len(lanes.pr)))
    out[:, :, 2] = dw
    return out


def _last_partial_sum(rows: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sum along ``axis``: ``((r0 + r1) + r2) + ...``.

    ``cumsum`` accumulates strictly sequentially, like the scalar
    ``sum()``; ``np.sum`` may reassociate (pairwise) and is not exact.
    """
    return np.take(np.cumsum(rows, axis=axis), -1, axis=axis)


def _finish_table(
    grids,
    placements,
    terms: np.ndarray,
    is_model: np.ndarray,
    is_domain: np.ndarray,
    compute_time: float,
    iterations: float,
    overlap: bool,
) -> GridCostTable:
    """Aggregate a chosen ``(4, L, 3, n)`` term tensor into a table.

    ``is_model`` / ``is_domain`` mark each layer's placement and
    broadcast against ``(L, 1, n)``; they split the first two slots
    between the ``model.*`` and ``domain.*`` categories (the third slot
    is always ``batch.allreduce_dw``).
    """
    _, layers, _, n = terms.shape
    latency, bandwidth, volume, total = _last_partial_sum(
        terms.reshape(4, 3 * layers, n), axis=1
    )
    time = terms[_TIME]
    by_category = np.empty((layers, 5, n))
    by_category[:, 0] = time[:, 2]
    by_category[:, 1:3] = np.where(is_model, time[:, :2], 0.0)
    by_category[:, 3:5] = np.where(is_domain, time[:, :2], 0.0)
    batch_dw, allgather, allreduce_dx, halo_fwd, halo_bwd = _last_partial_sum(
        by_category, axis=0
    )
    if overlap:
        # Mirrors repro.core.overlap.overlapped_time with the defaults.
        hidden_capacity = BACKPROP_COMPUTE_FRACTION * compute_time
        overlappable = BACKPROP_COMM_FRACTION * total
        exposed = total - np.minimum(overlappable, hidden_capacity)
        iter_total = compute_time + exposed
    else:
        iter_total = total + compute_time
    return GridCostTable(
        grids=tuple(grids),
        placements=tuple(placements),
        comm_latency=latency,
        comm_bandwidth=bandwidth,
        comm_total=total,
        batch_comm=batch_dw,
        model_comm=allgather + allreduce_dx,
        domain_comm=halo_fwd + halo_bwd,
        volume=volume,
        compute_time=compute_time,
        iterations=iterations,
        iter_total=iter_total,
        epoch_total=iter_total * iterations,
    )


def family_cost_table(
    network: NetworkSpec,
    batch: float,
    grids: Sequence[ProcessGrid],
    machine: MachineParams,
    *,
    placements: Sequence[Placement],
    compute_time: float,
    iterations: float,
    overlap: bool = False,
) -> GridCostTable:
    """Evaluate one fixed per-layer placement vector over many grids.

    ``placements`` holds one :class:`Placement` per weighted layer and
    is shared by every grid (the shape of the built-in families
    ``same_grid_model`` / ``conv_batch_fc_model`` /
    ``conv_domain_fc_model``).  ``compute_time`` is the per-iteration
    compute share (identical for every factorization of the same ``P``)
    and ``iterations`` the ``N / B`` epoch multiplier.

    Raises :class:`StrategyError` exactly where the serial path would:
    infeasible batch splits (``Pc > B``), pure-batch layers past
    ``P > B``, or domain placement on a fully connected layer.
    """
    if len(placements) != network.num_weighted:
        raise StrategyError(
            f"{len(placements)} placements for {network.num_weighted} weighted layers"
        )
    lanes = _grid_lanes(grids, batch)
    codes = []
    for layer, placement in zip(network.weighted_layers, placements):
        if placement is Placement.MODEL:
            codes.append(_MODEL)
        elif placement is Placement.DOMAIN:
            if layer.is_fc:
                raise StrategyError(
                    f"layer {layer.name!r} is fully connected; domain parallelism is "
                    "not applicable there (the halo would span the whole input — "
                    "paper Section 2.4)"
                )
            codes.append(_DOMAIN)
        else:
            if lanes.p > lanes.batch:
                raise StrategyError(
                    f"layer {layer.name!r} is placed pure batch over P={lanes.p} processes "
                    f"but the batch is only {lanes.batch} (fewer than one sample each); "
                    "scale past P=B with domain or model parallelism (Sec. 2.4)"
                )
            codes.append(_BATCH)

    cols = network.cost_columns
    code = np.array(codes)[:, None, None]
    dw = _replicated_dw(cols, lanes.p, machine)
    terms = _batch_terms(lanes, dw)
    if _MODEL in codes:
        terms = np.where(code == _MODEL, _model_terms(cols, lanes, machine), terms)
    if _DOMAIN in codes:
        terms = np.where(code == _DOMAIN, _domain_terms(cols, lanes, machine, dw), terms)
    return _finish_table(
        grids, placements, terms, code == _MODEL, code == _DOMAIN,
        compute_time, iterations, overlap,
    )


def per_layer_cost_table(
    network: NetworkSpec,
    batch: float,
    grids: Sequence[ProcessGrid],
    machine: MachineParams,
    *,
    allow_domain: bool = True,
    compute_time: float,
    iterations: float,
    overlap: bool = False,
) -> Tuple[GridCostTable, Tuple[Tuple[Placement, ...], ...]]:
    """Vectorized per-layer-optimal placements over many grids at once.

    For every grid lane this reproduces
    :func:`repro.core.optimizer.optimal_placements` exactly: each
    weighted layer is scored under MODEL, BATCH (skipped past
    ``P > B``) and — for convolutions when ``allow_domain`` — DOMAIN,
    in that candidate order with strict-improvement tie-breaking.  The
    scores are three ``(L, n)`` matrices (a layer's terms summed left
    to right, as the serial ``0.0 + t1 + t2 + ...``); the table is then
    aggregated from each (layer, grid)'s chosen terms.  Returns the
    table plus the chosen placement vector for each grid, in grid order.
    """
    lanes = _grid_lanes(grids, batch)
    cols = network.cost_columns
    dw = _replicated_dw(cols, lanes.p, machine)

    def score(terms: np.ndarray) -> np.ndarray:
        time = terms[_TIME]
        return (time[:, 0] + time[:, 1] + time[:, 2])[:, None]

    terms = _model_terms(cols, lanes, machine)
    best = score(terms)
    choice = np.zeros(best.shape, dtype=np.intp)
    candidates = []
    if lanes.p <= lanes.batch:  # pure batch infeasible past P = B
        candidates.append((_BATCH, _batch_terms(lanes, dw), True))
    if allow_domain and cols.conv.any():
        domain = _domain_terms(cols, lanes, machine, dw)
        candidates.append((_DOMAIN, domain, cols.conv[:, None, None]))
    # First strictly-smaller candidate wins, in candidate order —
    # exactly the serial optimizer's tie-breaking.
    for code, candidate, eligible in candidates:
        cost = score(candidate)
        better = (cost < best) & eligible
        best = np.where(better, cost, best)
        choice = np.where(better, code, choice)
        terms = np.where(better, candidate, terms)

    placements_per_grid = tuple(
        tuple(_CODES[c] for c in lane) for lane in choice[:, 0].T.tolist()
    )
    table = _finish_table(
        grids, (), terms, choice == _MODEL, choice == _DOMAIN,
        compute_time, iterations, overlap,
    )
    return table, placements_per_grid
