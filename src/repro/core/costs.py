"""Closed-form communication costs: Eqs. 3, 4, 7, 8 and 9 of the paper.

Every cost function returns a :class:`CostBreakdown` — a flat list of
per-layer, per-category :class:`CostTerm` records — so reports can show
exactly the decomposition the paper's figures use (batch-parallel
all-reduce communication is the cross-hatched portion of Figs. 6-9).

Term categories
---------------
``model.allgather_fwd``
    Forward all-gather of output activations over the ``Pr`` groups
    (Fig. 5 top; first sum of Eqs. 3 and 8).
``model.allreduce_dx``
    Backward all-reduce of activation gradients over the ``Pr`` groups
    (Fig. 5 bottom; second sum of Eqs. 3 and 8 — skipped for the first
    layer, which needs no gradient propagated past it).
``batch.allreduce_dw``
    Weight-gradient all-reduce (Fig. 2/5 middle; Eq. 4 and the third
    sum of Eq. 8).  Over the ``Pc`` groups with volume ``|W_i| / Pr``
    for 1.5D layers; over all ``P`` with volume ``|W_i|`` for pure-batch
    or domain-parallel layers.
``domain.halo_fwd`` / ``domain.halo_bwd``
    Pairwise halo exchanges of boundary activations/gradients for
    domain-parallel layers (Eq. 7 and the ``LD`` sums of Eq. 9).  Zero
    for 1x1 convolutions, as the paper highlights.
``abft.digest_fwd`` / ``abft.digest_dx`` / ``abft.digest_dw``
    SDC-guard overhead (:func:`sdc_guard_cost_terms`): one 8-byte
    checksum digest escorts every message of the corresponding
    collective, so the per-process volume is exactly the escorted
    term's ``cost.messages`` (the simulated algorithm's per-rank send
    count) at one element per message.
``abft.checksum_fwd`` / ``abft.checksum_dx`` / ``abft.checksum_dw``
    Local ABFT checksum folds over each guarded GEMM output block: two
    64-bit XOR word operations per element (one row fold, one column
    fold).  Pure local compute, so the time cost is zero under the
    alpha-beta model; the volume records the work for flop accounting.

All equations are implemented by the single general routine
:func:`integrated_cost` (Eq. 9 with per-layer placements); the named
pure cases are thin wrappers that instantiate the degenerate grids and
are property-tested to agree with the literal formulas.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.collectives.cost import (
    CollectiveCost,
    allgather_bruck,
    allreduce_ring,
    halo_exchange,
)
from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.errors import StrategyError
from repro.machine.params import MachineParams
from repro.nn.network import NetworkSpec, WeightedLayer

__all__ = [
    "CostTerm",
    "CostBreakdown",
    "layer_cost_terms",
    "model_parallel_cost",
    "batch_parallel_cost",
    "domain_parallel_cost",
    "integrated_mb_cost",
    "integrated_cost",
    "sdc_guard_cost_terms",
    "checkpoint_chunk_bytes",
    "checkpoint_state_bytes",
    "checkpoint_cost_terms",
    "checkpoint_recovery_cost_terms",
    "BATCH_CATEGORIES",
    "ABFT_CATEGORIES",
    "ABFT_DIGEST_CATEGORY",
    "CKPT_CATEGORIES",
    "CKPT_CENSUS_FIELDS",
]

BATCH_CATEGORIES = ("batch.allreduce_dw",)
ABFT_CATEGORIES = (
    "abft.digest_fwd",
    "abft.digest_dx",
    "abft.digest_dw",
    "abft.checksum_fwd",
    "abft.checksum_dx",
    "abft.checksum_dw",
)

#: Guarded collective category -> the digest-escort category riding on it.
ABFT_DIGEST_CATEGORY = {
    "model.allgather_fwd": "abft.digest_fwd",
    "model.allreduce_dx": "abft.digest_dx",
    "batch.allreduce_dw": "abft.digest_dw",
}

CKPT_CATEGORIES = (
    "ckpt.replicate",
    "ckpt.parity",
    "ckpt.census",
    "ckpt.fetch",
)

#: Ints per shard descriptor in the census allgather (8 bytes each in
#: the simulator's payload accounting) — must match
#: ``repro.dist.erasure.CENSUS_FIELDS``.
CKPT_CENSUS_FIELDS = 8


@dataclasses.dataclass(frozen=True)
class CostTerm:
    """One communication contribution of one layer.

    ``volume`` is the per-process communication volume in elements
    (the quantity Eq. 5 compares); ``cost`` is its alpha-beta time.
    """

    layer: str
    layer_index: int
    category: str
    cost: CollectiveCost
    volume: float

    @property
    def time(self) -> float:
        return self.cost.total


@dataclasses.dataclass(frozen=True)
class CostBreakdown:
    """A bag of :class:`CostTerm` records with aggregation helpers."""

    terms: Tuple[CostTerm, ...]

    @property
    def total(self) -> float:
        """Total communication time in seconds."""
        return sum(t.cost.total for t in self.terms)

    @property
    def latency(self) -> float:
        return sum(t.cost.latency for t in self.terms)

    @property
    def bandwidth(self) -> float:
        return sum(t.cost.bandwidth for t in self.terms)

    @property
    def volume(self) -> float:
        """Total communication volume in elements."""
        return sum(t.volume for t in self.terms)

    def by_category(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for t in self.terms:
            out[t.category] = out.get(t.category, 0.0) + t.cost.total
        return out

    def by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for t in self.terms:
            out[t.layer] = out.get(t.layer, 0.0) + t.cost.total
        return out

    def filter(self, *categories: str) -> "CostBreakdown":
        """Keep terms whose category matches any prefix in ``categories``."""
        kept = tuple(
            t for t in self.terms if any(t.category.startswith(c) for c in categories)
        )
        return CostBreakdown(kept)

    @property
    def batch_time(self) -> float:
        """Time in weight-gradient all-reduces (the cross-hatched bars)."""
        return self.filter(*BATCH_CATEGORIES).total

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(self.terms + other.terms)


def _term(layer: WeightedLayer, category: str, cost: CollectiveCost, volume: float) -> CostTerm:
    return CostTerm(layer.name, layer.index, category, cost, volume)


def _model_layer_terms(
    layer: WeightedLayer,
    first_weighted: bool,
    batch: float,
    grid: ProcessGrid,
    machine: MachineParams,
) -> List[CostTerm]:
    """Eq. 8 contributions of one layer placed with ``Placement.MODEL``."""
    pr, pc = grid.pr, grid.pc
    local_batch = batch / pc
    terms: List[CostTerm] = []
    # Forward all-gather of Y_i over the Pr group (absent when Pr == 1:
    # pure batch parallelism needs no forward communication, Fig. 2).
    if pr > 1:
        ag_n = local_batch * layer.d_out
        cost = allgather_bruck(pr, ag_n, machine)
        terms.append(_term(layer, "model.allgather_fwd", cost, ag_n * (pr - 1) / pr))
        # Backward all-reduce of dX over the Pr group; the paper's sum
        # starts at i = 2 because no gradient flows past the first layer.
        if not first_weighted:
            ar_n = local_batch * layer.d_in
            cost = allreduce_ring(pr, ar_n, machine)
            terms.append(
                _term(layer, "model.allreduce_dx", cost, 2 * ar_n * (pr - 1) / pr)
            )
    # Weight-gradient all-reduce over the Pc group; volume |W_i| / Pr.
    # Absent when Pc == 1: each process already holds the full batch, so
    # its partial dW is the total (Eq. 3 has no dW term).
    if pc > 1:
        dw_n = layer.weights / pr
        cost = allreduce_ring(pc, dw_n, machine)
        terms.append(_term(layer, "batch.allreduce_dw", cost, 2 * dw_n * (pc - 1) / pc))
    return terms


def _domain_layer_terms(
    layer: WeightedLayer,
    batch: float,
    grid: ProcessGrid,
    machine: MachineParams,
) -> List[CostTerm]:
    """Eq. 9 ``LD`` contributions of one domain-parallel layer."""
    if layer.is_fc:
        raise StrategyError(
            f"layer {layer.name!r} is fully connected; domain parallelism is "
            "not applicable there (the halo would span the whole input — "
            "paper Section 2.4)"
        )
    pr, pc = grid.pr, grid.pc
    p = grid.p
    local_batch = batch / pc
    terms: List[CostTerm] = []
    # Forward halo: floor(k_h/2) boundary rows of the input activation,
    # exchanged pairwise.  Zero (including latency) for 1x1 convolutions.
    if pr > 1:
        fwd_n = local_batch * layer.in_shape.width * layer.in_shape.channels * layer.halo_rows
        if fwd_n > 0:
            terms.append(_term(layer, "domain.halo_fwd", halo_exchange(fwd_n, machine), fwd_n))
        bwd_n = local_batch * layer.out_shape.width * layer.out_shape.channels * layer.halo_cols
        if bwd_n > 0:
            terms.append(_term(layer, "domain.halo_bwd", halo_exchange(bwd_n, machine), bwd_n))
    # Weight gradients: the model is fully replicated on all P processes,
    # so the all-reduce spans P with the full |W_i| volume.
    if p > 1:
        cost = allreduce_ring(p, layer.weights, machine)
        terms.append(
            _term(layer, "batch.allreduce_dw", cost, 2 * layer.weights * (p - 1) / p)
        )
    return terms


def _batch_layer_terms(
    layer: WeightedLayer, batch: float, grid: ProcessGrid, machine: MachineParams
) -> List[CostTerm]:
    """Pure-batch contribution (Eq. 4) of a layer run on a ``1 x P`` grid."""
    p = grid.p
    if p > batch:
        raise StrategyError(
            f"layer {layer.name!r} is placed pure batch over P={p} processes "
            f"but the batch is only {batch} (fewer than one sample each); "
            "scale past P=B with domain or model parallelism (Sec. 2.4)"
        )
    if p == 1:
        return []
    cost = allreduce_ring(p, layer.weights, machine)
    return [
        _term(layer, "batch.allreduce_dw", cost, 2 * layer.weights * (p - 1) / p)
    ]


def layer_cost_terms(
    layer: WeightedLayer,
    placement: Placement,
    batch: float,
    grid: ProcessGrid,
    machine: MachineParams,
    *,
    first: bool | None = None,
) -> Tuple[CostTerm, ...]:
    """The Eq. 9 contributions of a single layer under ``placement``.

    This is the per-layer cost kernel: :func:`integrated_cost` is just
    the concatenation of these tuples over the weighted layers, which is
    what makes the cost separable per layer — the property the
    memoizing search engine (:mod:`repro.search`) relies on.  ``first``
    marks the first weighted layer (no dX all-reduce, Eq. 8's sum
    starting at ``i = 2``); it defaults to ``layer.index == 1``.
    """
    if first is None:
        first = layer.index == 1
    if placement is Placement.MODEL:
        return tuple(_model_layer_terms(layer, first, batch, grid, machine))
    if placement is Placement.DOMAIN:
        return tuple(_domain_layer_terms(layer, batch, grid, machine))
    return tuple(_batch_layer_terms(layer, batch, grid, machine))


def integrated_cost(
    network: NetworkSpec,
    batch: float,
    strategy: Strategy,
    machine: MachineParams,
) -> CostBreakdown:
    """Eq. 9: per-iteration communication cost of an arbitrary strategy.

    Each weighted layer contributes according to its placement:
    ``MODEL`` layers follow the 1.5D terms of Eq. 8, ``DOMAIN`` layers
    the halo + full-replication terms of Eq. 9's ``LD`` sums, and
    ``BATCH`` layers run pure batch parallel over all ``P`` processes
    (the Fig. 7 configuration; grid switching between layers is
    asymptotically free, Eq. 6).

    With all layers in ``LM`` this is exactly Eq. 8; with a ``P x 1``
    grid it degenerates to Eq. 3 (pure model) and with ``1 x P`` to
    Eq. 4 (pure batch) — identities enforced by the test suite.
    """
    strategy.check_matches(network)
    if batch <= 0:
        raise StrategyError(f"batch size must be positive, got {batch}")
    if strategy.grid.pc > batch:
        raise StrategyError(
            f"batch {batch} cannot be split over Pc={strategy.grid.pc} "
            "(fewer than one sample per batch group); use domain or model "
            "parallelism to scale beyond the batch size (paper Section 2.4)"
        )
    terms: List[CostTerm] = []
    for layer, placement in zip(network.weighted_layers, strategy.placements):
        terms.extend(layer_cost_terms(layer, placement, batch, strategy.grid, machine))
    return CostBreakdown(tuple(terms))


def sdc_guard_cost_terms(
    network: NetworkSpec,
    batch: float,
    grid: ProcessGrid,
    machine: MachineParams,
) -> CostBreakdown:
    """ABFT guard overhead of a 1.5D (Eq. 8) run with SDC guards on.

    Two families of terms per weighted layer:

    * ``abft.digest_*`` — every message of a guarded collective carries
      an 8-byte XOR digest of its clean payload bits, so each Eq. 8 term
      of :func:`integrated_mb_cost` gets one escort term whose per-rank
      volume is that term's ``cost.messages`` at one element per
      message, charged pure bandwidth (``beta`` per element; the digest
      rides an existing message, adding no latency).
    * ``abft.checksum_*`` — the row + column folds over each guarded
      GEMM output block: two XOR word operations per block element.
      Local compute is untimed in the alpha-beta model, so the cost is
      zero and only the volume is informative.  The dX fold is skipped
      for the first weighted layer (no gradient flows past it — the
      same ``i = 2`` start as Eq. 8's sum).

    The simulator realises these exact escorts
    (:class:`~repro.simmpi.sdc.GuardedPayload`), which is what lets
    :func:`repro.telemetry.audit.audit_events` close the guarded audit
    at zero relative error instead of smearing digest traffic into the
    data-volume terms.
    """
    if batch <= 0:
        raise StrategyError(f"batch size must be positive, got {batch}")
    pr, pc = grid.pr, grid.pc
    local_batch = batch / pc
    terms: List[CostTerm] = []
    first_index = network.weighted_layers[0].index if network.weighted_layers else -1
    for layer in network.weighted_layers:
        first = layer.index == first_index
        # Digest escorts mirror the Eq. 8 collectives of this layer.
        for escorted in _model_layer_terms(layer, first, batch, grid, machine):
            msgs = escorted.cost.messages
            terms.append(
                _term(
                    layer, ABFT_DIGEST_CATEGORY[escorted.category],
                    CollectiveCost(0.0, machine.beta * msgs), float(msgs),
                )
            )
        # Checksum folds over the three local GEMM output blocks.
        d_out_local = layer.d_out / pr
        fold_volumes = (
            ("abft.checksum_fwd", 2.0 * d_out_local * local_batch),
            ("abft.checksum_dx", None if first else 2.0 * layer.d_in * local_batch),
            ("abft.checksum_dw", 2.0 * d_out_local * layer.d_in),
        )
        for category, volume in fold_volumes:
            if volume is not None:
                terms.append(_term(layer, category, CollectiveCost.zero(), volume))
    return CostBreakdown(tuple(terms))


def integrated_mb_cost(
    network: NetworkSpec,
    batch: float,
    grid: ProcessGrid,
    machine: MachineParams,
) -> CostBreakdown:
    """Eq. 8: integrated model+batch 1.5D cost with one grid for all layers."""
    return integrated_cost(
        network, batch, Strategy.same_grid_model(network, grid), machine
    )


def model_parallel_cost(
    network: NetworkSpec, batch: float, p: int, machine: MachineParams
) -> CostBreakdown:
    """Eq. 3: pure model parallelism (``P x 1`` grid, all layers in LM)."""
    return integrated_mb_cost(network, batch, ProcessGrid(p, 1), machine)


def batch_parallel_cost(
    network: NetworkSpec, p: int, machine: MachineParams, *, batch: float | None = None
) -> CostBreakdown:
    """Eq. 4: pure batch parallelism.

    The cost is independent of the batch size (for ``P >> 1`` the
    bandwidth term is just ``2 beta |W|``); ``batch`` is accepted only
    to validate that the configuration is feasible (``B >= P``).
    """
    b = float(batch) if batch is not None else float(p)
    return integrated_mb_cost(network, b, ProcessGrid(1, p), machine)


def domain_parallel_cost(
    network: NetworkSpec, batch: float, p: int, machine: MachineParams
) -> CostBreakdown:
    """Eq. 7: pure domain parallelism (``P x 1`` grid, all layers in LD).

    Only meaningful for all-convolutional prefixes; FC layers reject
    domain placement, so this helper evaluates the convolutional layers
    under domain parallelism and the FC layers as pure batch (fully
    replicated weights), which reproduces Eq. 7's weight term
    ``2 sum_i (alpha ceil(log P) + beta (P-1)/P |W_i|)`` for every
    layer while charging halos only where convolutions exist.
    """
    strategy = Strategy(
        ProcessGrid(p, 1),
        tuple(
            Placement.DOMAIN if w.is_conv else Placement.BATCH
            for w in network.weighted_layers
        ),
    )
    return integrated_cost(network, batch, strategy, machine)


# ---------------------------------------------------------------------------
# Checkpoint traffic (erasure-coded sharded checkpoints; repro.dist.elastic)
# ---------------------------------------------------------------------------

# The wire volumes of these terms are exact rationals (``Fraction``), so
# :func:`repro.telemetry.audit.audit_checkpoint_events` sums them over any
# grid without rounding.

#: The simulated trainer stores float64 state, so checkpoint byte math is
#: pinned to 8-byte elements regardless of ``machine.element_bytes``.
_CKPT_ELEMENT_BYTES = 8


def _ckpt_row_elems(dims: Tuple[int, ...], pr: int, row: int) -> int:
    """Weight elements held by model-row ``row`` across all layers."""
    total = 0
    for i in range(len(dims) - 1):
        base, rem = divmod(dims[i + 1], pr)
        rows = base + (1 if row < rem else 0)
        total += rows * dims[i]
    return total


def checkpoint_state_bytes(dims: Tuple[int, ...], *, momentum: bool = False) -> int:
    """Total bytes of one full checkpoint (all weights, + velocity)."""
    elems = sum(dims[i + 1] * dims[i] for i in range(len(dims) - 1))
    return elems * _CKPT_ELEMENT_BYTES * (2 if momentum else 1)


def checkpoint_chunk_bytes(
    dims: Tuple[int, ...], *, pr: int, k: int, momentum: bool = False
) -> int:
    """Uniform stripe chunk size used by the erasure-coded shard layout.

    Mirrors ``repro.dist.erasure.chunk_bytes``: the widest model row's
    packed state, ceil-divided by ``k`` data chunks, floored at one byte
    so degenerate layers still stripe.
    """
    if pr < 1 or k < 1:
        raise StrategyError("checkpoint_chunk_bytes needs pr >= 1 and k >= 1")
    widest = 0
    for row in range(pr):
        row_bytes = _ckpt_row_elems(dims, pr, row) * _CKPT_ELEMENT_BYTES
        if momentum:
            row_bytes *= 2
        widest = max(widest, row_bytes)
    return max(1, -(-widest // k))


def checkpoint_cost_terms(
    dims: Tuple[int, ...],
    *,
    pr: int,
    pc: int,
    machine: MachineParams,
    parity: int = 1,
    momentum: bool = False,
    mode: str = "erasure",
) -> CostBreakdown:
    """Cost terms for ONE checkpoint take on a ``pr x pc`` grid.

    ``mode="replicate"`` gathers every layer's weight blocks (and
    velocity blocks when ``momentum``) over the ``pr``-sized column
    groups, so each process moves ``(pr-1)/pr |W_i|`` elements per
    state tensor (zero when ``pr == 1`` — every rank already holds the
    full rows).  ``mode="erasure"`` writes one locally-encoded chunk of
    ``chunk_bytes`` per rank and moves nothing on the wire; the term's
    volume records the stored chunk (in elements) for capacity
    accounting, exactly as the ``abft.checksum_*`` terms record local
    work.  An erasure request with ``pc - parity < 1`` falls back to
    replicate terms, matching the trainer.
    """
    if mode not in ("erasure", "replicate"):
        raise StrategyError(f"unknown checkpoint mode {mode!r}")
    if pr < 1 or pc < 1:
        raise StrategyError("checkpoint_cost_terms needs pr >= 1 and pc >= 1")
    k = pc - parity
    terms: List[CostTerm] = []
    if mode == "erasure" and k >= 1:
        chunk = checkpoint_chunk_bytes(dims, pr=pr, k=k, momentum=momentum)
        terms.append(
            CostTerm(
                "ckpt",
                0,
                "ckpt.parity",
                CollectiveCost.zero(),
                chunk / _CKPT_ELEMENT_BYTES,
            )
        )
        return CostBreakdown(tuple(terms))
    kinds = ("W", "V") if momentum else ("W",)
    for i in range(len(dims) - 1):
        elems = dims[i + 1] * dims[i]
        for kind in kinds:
            terms.append(
                CostTerm(
                    f"{kind}{i + 1}",
                    i + 1,
                    "ckpt.replicate",
                    allgather_bruck(pr, elems, machine),
                    Fraction(elems * (pr - 1), pr),
                )
            )
    return CostBreakdown(tuple(terms))


def checkpoint_recovery_cost_terms(
    *,
    survivors: int,
    held: Tuple[int, ...],
    machine: MachineParams,
    dims: Tuple[int, ...] | None = None,
    step: int | None = None,
    pr: int | None = None,
    k: int | None = None,
    momentum: bool = False,
    have: Tuple[int, ...] | None = None,
) -> CostBreakdown:
    """Cost terms for ONE census + (optional) shard-fetch recovery round.

    ``held`` gives each survivor's descriptor count for the census
    allgather (``CKPT_CENSUS_FIELDS`` 8-byte ints per descriptor).  When
    the census chooses an erasure checkpoint, pass ``have`` (shards of
    the chosen step per survivor) plus the stripe geometry
    (``dims``/``step``/``pr``/``k``) and a ``ckpt.fetch`` term is added:
    each fetched shard carries a 16-byte ``(row, col)`` header, the
    ``chunk_bytes`` payload, and the 8-byte-per-entry loss history up to
    ``step``.  A replicate restore moves nothing (the survivor's local
    copy is used), so ``have=None`` yields census-only terms.
    """
    if survivors < 1:
        raise StrategyError("checkpoint_recovery_cost_terms needs survivors >= 1")
    if len(held) != survivors:
        raise StrategyError("held must list one descriptor count per survivor")
    terms: List[CostTerm] = []
    census_elems = sum(held) * CKPT_CENSUS_FIELDS
    terms.append(
        CostTerm(
            "ckpt",
            0,
            "ckpt.census",
            allgather_bruck(survivors, census_elems, machine),
            Fraction(census_elems * (survivors - 1), survivors),
        )
    )
    if have is not None:
        if dims is None or step is None or pr is None or k is None:
            raise StrategyError(
                "ckpt.fetch terms need dims, step, pr and k for the stripe geometry"
            )
        if len(have) != survivors:
            raise StrategyError("have must list one shard count per survivor")
        chunk = checkpoint_chunk_bytes(dims, pr=pr, k=k, momentum=momentum)
        shard_bytes = 16 + chunk + _CKPT_ELEMENT_BYTES * step
        fetch_elems = Fraction(sum(have) * shard_bytes, _CKPT_ELEMENT_BYTES)
        terms.append(
            CostTerm(
                "ckpt",
                0,
                "ckpt.fetch",
                allgather_bruck(survivors, fetch_elems, machine),
                fetch_elems * (survivors - 1) / survivors,
            )
        )
    return CostBreakdown(tuple(terms))
