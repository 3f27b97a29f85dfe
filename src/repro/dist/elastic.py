"""Elastic, fault-tolerant 1.5D MLP training.

Builds on the supervised fault mode of :class:`~repro.simmpi.engine.SimEngine`:
ranks run the one synchronous-SGD loop,
:func:`~repro.dist.train.sgd_program`, on the MLP cut, with a recovery
hook that additionally lets them

* take periodic **in-simulation checkpoints**.  The default
  ``ckpt_mode="erasure"`` stripes the optimizer state across each grid
  row's ``Pc`` column replicas as ``k = Pc - parity`` data chunks plus
  ``parity`` Reed-Solomon chunks (:mod:`repro.dist.erasure`) — a purely
  local encode, since 1.5D already replicates the row blocks across the
  row group, so a take moves **zero** bytes and stores ``~1/k`` of the
  state per rank.  ``ckpt_mode="replicate"`` keeps the original
  behaviour (every rank all-gathers and holds the full state), and is
  the automatic fallback once failures shrink the grid to
  ``Pc - parity < 1`` (a starting grid that narrow is refused); and
* survive injected rank crashes — including **concurrent** crashes and
  crashes that land during recovery: when a peer failure surfaces as
  :class:`~repro.errors.PeerFailedError`, the survivors ``shrink`` the
  world ULFM-style, run a **shard census** (all-gather holdings
  descriptors, pick the newest checkpoint whose every stripe still has
  ``>= k`` surviving chunks, degrading to an older one — ultimately the
  locally-held step-0 replica — when shards are short), re-plan the
  process grid to the best surviving ``Pr' x Pc'`` factorization under
  the paper's Eq. 8 cost model, fetch + decode, and resume.

Because checkpoints capture the exact bit pattern of weights, velocity
and the (purely step-indexed) batch cursor, a recovered run continues
the *same* synchronous-SGD trajectory: its final weights match an
uninterrupted reference continued from the same checkpoint to
floating-point reduction-order accuracy, and the whole scenario is
deterministic given the :class:`~repro.simmpi.faults.FaultPlan` seed.
Up to ``parity`` concurrent rank losses restore the newest checkpoint
bit-exactly; beyond that the run *declares* degradation
(``ElasticResult.degraded_steps``) rather than silently resuming from
stale state.  See ``docs/CHECKPOINT.md``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.costs import integrated_mb_cost
from repro.core.strategy import ProcessGrid
from repro.dist.abft import make_guard
from repro.dist.erasure import (
    MODE_ERASURE,
    MODE_REPLICATE,
    ShardMeta,
    ShardStore,
    block_state_bytes,
    census_choose,
    chunk_bytes,
    decode_stripe,
    encode_chunk,
    pack_block_state,
    unpack_block_state,
)
from repro.dist.grid import GridComm
from repro.dist.partition import BlockPartition
from repro.dist.train import (
    Checkpoint,
    MLPParams,
    Replica,
    check_inputs,
    mlp_cut,
    sgd_program,
)
from repro.errors import ConfigurationError, PeerFailedError, StrategyError
from repro.machine.params import MachineParams
from repro.nn.zoo import mlp
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "Checkpoint",
    "ElasticResult",
    "CKPT_MODES",
    "check_ckpt_policy",
    "replan_grid",
    "elastic_mlp_program",
    "elastic_mlp_train",
]

#: Supported checkpoint storage modes.
CKPT_MODES = ("erasure", "replicate")


def check_ckpt_policy(pc: int, ckpt_mode: str, parity: int) -> None:
    """Refuse a checkpoint policy the ``Pc``-wide starting grid cannot keep.

    An erasure stripe holds ``Pc - parity`` data chunks, so it needs
    ``1 <= parity < Pc``: anything else would store full replicas under
    the name ``erasure``.  Only a grid shrunk by failures falls back to
    replication (see :meth:`_Recovery._take`).
    """
    if ckpt_mode not in CKPT_MODES:
        raise ConfigurationError(
            f"ckpt_mode must be one of {CKPT_MODES}, got {ckpt_mode!r}"
        )
    if parity < 1:
        raise ConfigurationError(f"parity must be >= 1, got {parity}")
    if ckpt_mode == "erasure" and parity >= pc:
        raise ConfigurationError(
            f"an erasure checkpoint stripes over the Pc={pc} row replicas, so "
            f"it needs 1 <= parity < Pc; got parity {parity} (ckpt_mode "
            "'replicate' has no such limit)"
        )


@dataclasses.dataclass
class ElasticResult:
    """Outcome of an elastic training run.

    ``grids`` is the grid history (initial shape first, then one entry
    per completed recovery); ``restore_steps`` lists the checkpoint step
    each recovery resumed from; ``degraded_steps`` the subset of
    restores that had to fall past the newest checkpoint because too
    many shards died with the crashed ranks (empty for every scenario
    within the parity budget).
    """

    weights: List[np.ndarray]
    losses: List[float]
    sim: SimResult
    grids: List[Tuple[int, int]]
    restore_steps: List[int]
    degraded_steps: List[int]
    #: The full :class:`Checkpoint` each recovery restored (one per
    #: entry of ``restore_steps``) — the chaos harness verifies these
    #: bit-exactly against an uncrashed oracle run.
    restored: List[Checkpoint]
    #: A surviving rank's :class:`ShardStore` at run end (its local
    #: replicas/shards), exposed for verification and tests.
    store: "ShardStore"
    engine: SimEngine

    @property
    def recovered(self) -> bool:
        return bool(self.restore_steps)



def replan_grid(
    p: int,
    dims: Sequence[int],
    batch: int,
    machine: MachineParams,
) -> Tuple[int, int]:
    """The cheapest feasible ``Pr x Pc`` grid for ``p`` survivors.

    Scores every factorization of ``p`` with the integrated
    model+batch cost model (Eq. 8) for the MLP defined by ``dims`` and
    picks the minimum; ties break toward smaller ``Pr``.  A grid is
    feasible when every layer has at least one weight row per model
    rank (``pr <= min(dims[1:])``) and every batch column group at
    least one sample (``pc <= batch``).
    """
    network = mlp(dims)
    best: Optional[Tuple[float, int, int]] = None
    for grid in ProcessGrid.factorizations(p):
        if grid.pr > min(dims[1:]) or grid.pc > batch:
            continue
        try:
            cost = integrated_mb_cost(network, float(batch), grid, machine).total
        except StrategyError:  # pragma: no cover - filtered above
            continue
        key = (cost, grid.pr, grid.pc)
        if best is None or key < best:
            best = key
    if best is None:
        raise ConfigurationError(
            f"no feasible grid for {p} survivors (dims={tuple(dims)}, batch={batch})"
        )
    return best[1], best[2]


def _full_blocks(grid: GridComm, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Assemble full matrices from row blocks via the column groups.

    Every member of a column group holds all ``Pr`` row blocks, so the
    assembled copies are replicated on every rank of the grid.
    """
    return [np.vstack(grid.col_comm.allgather_object(b)) for b in blocks]


def _ckpt_event(world, op: str, *tag: int) -> None:
    """Record a zero-duration ``ckpt.*`` marker event (tracing only).

    Markers carry no bytes and no duration, so the trace's timing,
    critical path and traffic accounting are unaffected; the RunRecord
    builder turns them into schema-v3 ``ckpt`` counters.
    """
    tracer = world._engine.tracer
    if tracer.enabled:
        from repro.simmpi.tracing import TraceEvent

        now = world.clock
        tracer.record(
            TraceEvent(
                world.world_rank, op, -1, 0, now, now, tuple(int(v) for v in tag)
            )
        )


def _census_restore(
    world, store: ShardStore, dims: Sequence[int], momentum: float
) -> Tuple[int, Checkpoint, bool]:
    """Shard census + fetch + decode; the heart of multi-failure recovery.

    Survivors all-gather their holdings' descriptors, agree (the census
    is deterministic) on the newest fully-recoverable step — degrading
    past steps whose stripes lost more than ``r`` chunks — then
    all-gather the chosen step's surviving chunks and decode.  Returns
    ``(step, checkpoint, degraded)``.
    """
    mom = bool(momentum)
    descs = store.descriptors()
    with span("ckpt_census", comm=world, held=len(descs)):
        all_descs = world.allgather_object(descs)
    chosen, newest, geometry = census_choose(all_descs)
    was_degraded = chosen < newest
    holding = store.get(chosen)
    if geometry is None:
        # Replicated on every survivor: the restore is purely local.
        ckpt = holding.checkpoint.copy()
        mode, fetched = MODE_REPLICATE, 0
    else:
        mode = MODE_ERASURE
        pr_t, _pc_t, k, r = geometry
        payload = None
        if holding is not None and hasattr(holding, "chunk"):
            meta = holding.meta
            payload = (meta.row, meta.col, holding.chunk, holding.losses)
        with span("ckpt_fetch", comm=world, step=chosen, prt=pr_t, k=k, r=r,
                  mom=int(mom), have=int(payload is not None)):
            gathered = world.allgather_object(payload)
        chunks_by_row: dict = {}
        losses: Tuple[float, ...] = ()
        fetched = 0
        for item in gathered:
            if item is None:
                continue
            row, col, chunk, loss_vec = item
            chunks_by_row.setdefault(row, {})[col] = chunk
            losses = tuple(loss_vec)
            fetched += 16 + int(chunk.nbytes) + 8 * len(loss_vec)
        blocks = [
            unpack_block_state(
                decode_stripe(chunks_by_row.get(row, {}), k, r,
                              block_state_bytes(dims, pr_t, row, mom)),
                dims, pr_t, row, mom,
            )
            for row in range(pr_t)
        ]
        weights = [np.vstack(ws) for ws in zip(*(wb for wb, _ in blocks))]
        velocity = [np.vstack(vs) for vs in zip(*(vb for _, vb in blocks))] if mom else None
        ckpt = Checkpoint(chosen, weights, velocity, losses)
    _ckpt_event(world, "ckpt.restore", chosen, mode, fetched)
    if was_degraded:
        _ckpt_event(world, "ckpt.degraded", chosen, newest)
    return chosen, ckpt, was_degraded


def _step0_checkpoint(params0: MLPParams) -> Checkpoint:
    """The step-0 checkpoint: one read-only copy of the initial weights.

    Built once per run and held by every rank's :class:`ShardStore`; a
    copy per rank is O(P * model).  Restores copy out of it, so nothing
    writes to it (and a write raises).
    """
    weights = [w.copy() for w in params0.weights]
    for w in weights:
        w.setflags(write=False)
    return Checkpoint(0, weights, None, ())


class _Recovery:
    """The elastic hook on :func:`~repro.dist.train.sgd_program`.

    Before each step it fires this rank's scripted crashes, charges the
    step's GEMM time and takes the periodic checkpoint; on a peer
    failure it shrinks, runs the census, re-plans and restores.  It
    holds this rank's :class:`ShardStore` and the run's grid and
    restore history.
    """

    def __init__(self, step0: Checkpoint, *, pr, pc, batch, momentum,
                 checkpoint_every, ckpt_mode, parity, machine):
        # The step-0 checkpoint is always replicated, so every rank
        # holds it and even a census that degrades past every striped
        # checkpoint has a restore point.
        self.store = ShardStore()
        self.store.add_replica(0, step0)
        self.dims = MLPParams(step0.weights).dims
        self.batch, self.momentum, self.machine = batch, momentum, machine
        self.every, self.ckpt_mode, self.parity = checkpoint_every, ckpt_mode, parity
        self.start = 0
        self.grids: List[Tuple[int, int]] = [(pr, pc)]
        self.restores: List[int] = []
        self.degraded: List[int] = []
        self.restored: List[Checkpoint] = []

    def before_step(self, rep: Replica, step: int, losses: List[float]) -> None:
        grid, dims = rep.grid, self.dims
        world = grid.comm
        world.heartbeat(step=step)
        # Local GEMM work per step (fwd + dX + dW ~ 3 GEMMs at
        # 2*m*k*n flops each), charged to the virtual clock so
        # compute-level faults — stragglers above all — actually
        # shape elastic timings instead of being invisible.
        b_local = BlockPartition(self.batch, grid.pc).size(grid.col)
        world.advance(sum(
            6.0 * BlockPartition(dims[i + 1], grid.pr).size(grid.row) * dims[i] * b_local
            for i in range(len(dims) - 1)
        ) / self.machine.flops_peak)
        # Compute-phase heartbeat: emitted before the first collective
        # of the step, while per-rank clocks still show *local* compute
        # time — the only point where a straggler's dilation is visible
        # per rank (the later collectives sync everyone to the slowest).
        emit_heartbeat(world, step=step, phase="compute")
        if step % self.every == 0 and step > self.start:
            self._take(rep, step, losses)

    def _take(self, rep: Replica, step: int, losses: List[float]) -> None:
        """Checkpoint the state entering ``step``.

        An erasure take is a local encode with zero wire traffic: every
        member of a row group serializes the bit-identical row-block
        state and keeps chunk ``grid.col`` of its stripe.  Striping
        needs at least one data chunk per stripe, so narrow grids (e.g.
        Pc=1 after heavy shrink) fall back to replication, which
        all-gathers the full state onto every rank.
        """
        grid, mom = rep.grid, bool(self.momentum)
        k = grid.pc - self.parity
        erasure = self.ckpt_mode == "erasure" and k >= 1
        velocity = None
        if mom:
            state = rep.opt.get_state()
            velocity = [state.get(i, np.zeros_like(w)) for i, w in enumerate(rep.params)]
        with span("checkpoint", comm=grid.comm, step=step,
                  mode="erasure" if erasure else "replicate",
                  pr=grid.pr, pc=grid.pc, mom=int(mom)):
            if erasure:
                chunk = encode_chunk(
                    pack_block_state(rep.params, velocity), k, self.parity,
                    grid.col, chunk_bytes(self.dims, grid.pr, k, mom),
                )
                meta = ShardMeta(step, grid.row, grid.col, grid.pr, grid.pc,
                                 k, self.parity, int(mom))
                self.store.add_shard(step, meta, chunk, tuple(losses))
                stored, mode = int(chunk.nbytes), MODE_ERASURE
            else:
                weights = _full_blocks(grid, rep.params)
                full_v = _full_blocks(grid, velocity) if mom else None
                self.store.add_replica(step, Checkpoint(step, weights, full_v, tuple(losses)))
                stored, mode = self.store.get(step).stored_bytes(), MODE_REPLICATE
        _ckpt_event(grid.comm, "ckpt.take", step, mode, stored)

    def recover(self, world) -> Tuple[object, Checkpoint]:
        """Shrink to the survivors, census the surviving shards, agree
        on the newest recoverable checkpoint and re-plan the grid for
        the new world size; returns the new world and that checkpoint.
        A further crash anywhere in this sequence (a *cascading*
        failure) re-raises PeerFailedError, and recovery starts over.
        """
        while True:
            try:
                with span("recovery", comm=world):
                    world = world.shrink()
                    self.start, ckpt, was_degraded = _census_restore(
                        world, self.store, self.dims, self.momentum
                    )
                    # Stale newer holdings carry the pre-crash grid's
                    # trajectory; the replay from ``start`` re-takes
                    # them on the new grid, so they must be dropped.
                    self.store.truncate(self.start)
                    self.grids.append(
                        replan_grid(world.size, self.dims, self.batch, self.machine)
                    )
                    self.restores.append(self.start)
                    self.restored.append(ckpt)
                    if was_degraded:
                        self.degraded.append(self.start)
                return world, ckpt
            except PeerFailedError:
                pass

    def finish(self, rep: Replica) -> List[np.ndarray]:
        return _full_blocks(rep.grid, rep.params)


def elastic_mlp_program(
    world,
    step0: Checkpoint,
    x: np.ndarray,
    y: np.ndarray,
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    checkpoint_every: int = 2,
    ckpt_mode: str = "erasure",
    parity: int = 1,
    sdc=None,
):
    """The SPMD rank program for elastic 1.5D MLP training.

    ``step0`` is the run's shared, read-only step-0 checkpoint (the
    initial weights); every rank's store holds that one object, so even
    a census that degrades past every striped checkpoint has a restore
    point.  Runs :func:`~repro.dist.train.sgd_program` on the MLP cut
    of the current grid with a :class:`_Recovery` hook.  Returns
    ``(losses, full_weights, grids, restore_steps, degraded_steps,
    restored_checkpoints, store)`` on every surviving rank.

    ``sdc`` enables ABFT guards (see :func:`~repro.dist.train.mlp_cut`).
    This is also the escalation target of the ``recompute`` policy: a
    rank whose retry budget is exhausted raises
    :class:`~repro.errors.SDCUnrecoverableError`, which the supervisor
    treats exactly like a crash — the survivors shrink, re-plan and
    restore from the newest recoverable checkpoint.  Re-planning and
    the per-step GEMM charge use the engine's machine.
    """
    guard = make_guard(sdc)
    rec = _Recovery(
        step0, pr=pr, pc=pc, batch=batch, momentum=momentum,
        checkpoint_every=checkpoint_every, ckpt_mode=ckpt_mode, parity=parity,
        machine=world.engine.network.machine,
    )

    def cut(w, ckpt):
        cur_pr, cur_pc = rec.grids[-1]
        return mlp_cut(
            w, ckpt, x, y, pr=cur_pr, pc=cur_pc, batch=batch, lr=lr,
            momentum=momentum, guard=guard,
        )

    weights, losses = sgd_program(
        world, cut, step0, steps=steps, phase="elastic", guard=guard, recovery=rec
    )
    return losses, weights, rec.grids, rec.restores, rec.degraded, rec.restored, rec.store


def elastic_mlp_train(
    params0: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    checkpoint_every: int = 2,
    ckpt_mode: str = "erasure",
    parity: int = 1,
    faults=None,
    sdc=None,
    engine: Optional[Union[SimEngine, str]] = None,
) -> ElasticResult:
    """Train elastically on a supervised ``pr x pc`` simulation.

    ``faults`` is a :class:`~repro.simmpi.faults.FaultPlan` (or
    injector); with ``None`` or an empty plan the run is numerically
    identical to :func:`~repro.dist.train.distributed_mlp_train`.
    ``ckpt_mode`` selects erasure-coded sharded checkpoints (default)
    or full replication; ``parity`` is the number of Reed-Solomon
    parity chunks per stripe, i.e. the number of *concurrent* rank
    losses every striped checkpoint survives bit-exactly; erasure needs
    ``1 <= parity < pc`` (:func:`check_ckpt_policy`).
    ``sdc`` enables ABFT guards against injected bit flips.
    ``engine`` is ``None`` (a default supervised engine) or a prebuilt
    ``SimEngine(pr * pc, machine, trace=..., metrics=..., faults=...,
    supervise=True)``, which then carries the faults too (``faults=``
    beside it is an error).
    Raises :class:`~repro.errors.RankFailedError` if every rank dies.
    """
    check_inputs(x, y, batch, params0.weights[0].shape[1:])
    if checkpoint_every < 1:
        raise ConfigurationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    check_ckpt_policy(pc, ckpt_mode, parity)
    engine = resolve_engine(engine, pr * pc, faults=faults, supervise=True)
    result = engine.run(
        elastic_mlp_program,
        _step0_checkpoint(params0),
        x,
        y,
        pr=pr,
        pc=pc,
        batch=batch,
        steps=steps,
        lr=lr,
        momentum=momentum,
        checkpoint_every=checkpoint_every,
        ckpt_mode=ckpt_mode,
        parity=parity,
        sdc=make_guard(sdc),
    )
    losses, weights, grids, restores, degraded, restored, store = result.values[
        result.survivors[0]
    ]
    return ElasticResult(
        weights=weights,
        losses=list(losses),
        sim=result,
        grids=list(grids),
        restore_steps=list(restores),
        degraded_steps=list(degraded),
        restored=list(restored),
        store=store,
        engine=engine,
    )
