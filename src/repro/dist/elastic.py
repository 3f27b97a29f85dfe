"""Elastic, fault-tolerant 1.5D MLP training.

Builds on the supervised fault mode of :class:`~repro.simmpi.engine.SimEngine`:
ranks train exactly as :func:`~repro.dist.train.mlp_train_program` does,
but additionally

* take periodic **in-simulation checkpoints**.  The default
  ``ckpt_mode="erasure"`` stripes the optimizer state across each grid
  row's ``Pc`` column replicas as ``k = Pc - parity`` data chunks plus
  ``parity`` Reed-Solomon chunks (:mod:`repro.dist.erasure`) — a purely
  local encode, since 1.5D already replicates the row blocks across the
  row group, so a take moves **zero** bytes and stores ``~1/k`` of the
  state per rank.  ``ckpt_mode="replicate"`` keeps the original
  behaviour (every rank all-gathers and holds the full state), and is
  the automatic fallback whenever ``Pc - parity < 1``; and
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
from repro.dist.matmul15d import fc_stack_step_15d
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.dist.train import (
    MLPParams,
    _batch_columns,
    check_mlp_inputs,
    trainer_run_record,
)
from repro.errors import ConfigurationError, PeerFailedError, StrategyError
from repro.machine.params import MachineParams
from repro.nn.zoo import mlp
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine
from repro.simmpi.sdc import payload_guard
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "Checkpoint",
    "ElasticResult",
    "CKPT_MODES",
    "replan_grid",
    "elastic_mlp_program",
    "elastic_mlp_train",
    "elastic_run_record",
]

#: Supported checkpoint storage modes.
CKPT_MODES = ("erasure", "replicate")


@dataclasses.dataclass
class Checkpoint:
    """Replicated training state at a step boundary.

    Captures everything needed to resume step ``step`` on *any* process
    grid: the full (unpartitioned) weights, the full momentum buffers
    (``None`` when momentum is off), and the global losses of the steps
    already taken.  The batch cursor needs no storage — the cyclic batch
    window is a pure function of the step index.
    """

    step: int
    weights: List[np.ndarray]
    velocity: Optional[List[np.ndarray]]
    losses: Tuple[float, ...]

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            self.step,
            [w.copy() for w in self.weights],
            None if self.velocity is None else [v.copy() for v in self.velocity],
            self.losses,
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


def _velocity_blocks(
    w_locals: Sequence[np.ndarray], opt: SGD
) -> List[np.ndarray]:
    state = opt.get_state()
    return [state.get(i, np.zeros_like(w)) for i, w in enumerate(w_locals)]


def _take_checkpoint(
    grid: GridComm,
    step: int,
    w_locals: Sequence[np.ndarray],
    opt: SGD,
    losses: Sequence[float],
    momentum: float,
) -> Checkpoint:
    full_w = _full_blocks(grid, w_locals)
    full_v: Optional[List[np.ndarray]] = None
    if momentum:
        full_v = _full_blocks(grid, _velocity_blocks(w_locals, opt))
    return Checkpoint(step, full_w, full_v, tuple(losses))


def _take_shard(
    grid: GridComm,
    store: ShardStore,
    step: int,
    w_locals: Sequence[np.ndarray],
    opt: SGD,
    losses: Sequence[float],
    momentum: float,
    parity: int,
    dims: Sequence[int],
) -> int:
    """Erasure-coded take: local encode, zero wire traffic.

    Every member of this rank's row group serializes the bit-identical
    row-block state and keeps chunk ``grid.col`` of its stripe; returns
    the bytes this rank stored.
    """
    k = grid.pc - parity
    v_blocks = _velocity_blocks(w_locals, opt) if momentum else None
    stripe = pack_block_state(w_locals, v_blocks)
    clen = chunk_bytes(dims, grid.pr, k, bool(momentum))
    chunk = encode_chunk(stripe, k, parity, grid.col, clen)
    meta = ShardMeta(
        step, grid.row, grid.col, grid.pr, grid.pc, k, parity, int(bool(momentum))
    )
    store.add_shard(step, meta, chunk, tuple(losses))
    return int(chunk.nbytes)


def _restore(
    ckpt: Checkpoint,
    grid: GridComm,
    row_parts: Sequence[BlockPartition],
    lr: float,
    momentum: float,
) -> Tuple[List[np.ndarray], SGD, List[float]]:
    w_locals = [
        part.take(w, grid.row, axis=0).copy()
        for part, w in zip(row_parts, ckpt.weights)
    ]
    opt = SGD(lr=lr, momentum=momentum)
    if ckpt.velocity is not None:
        opt.set_state(
            {
                i: part.take(v, grid.row, axis=0)
                for i, (part, v) in enumerate(zip(row_parts, ckpt.velocity))
            }
        )
    return w_locals, opt, list(ckpt.losses)


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
        with span(
            "ckpt_fetch",
            comm=world,
            step=chosen,
            prt=pr_t,
            k=k,
            r=r,
            mom=int(mom),
            have=int(payload is not None),
        ):
            gathered = world.allgather_object(payload)
        chunks_by_row: dict = {}
        losses: Tuple[float, ...] = ()
        fetched = 0
        for item in gathered:
            if item is None:
                continue
            row, _col, chunk, loss_vec = item
            chunks_by_row.setdefault(row, {})[_col] = chunk
            losses = tuple(loss_vec)
            fetched += 16 + int(chunk.nbytes) + 8 * len(loss_vec)
        num_layers = len(dims) - 1
        blocks_w: List[List[np.ndarray]] = []
        blocks_v: List[Optional[List[np.ndarray]]] = []
        for row in range(pr_t):
            stripe = decode_stripe(
                chunks_by_row.get(row, {}),
                k,
                r,
                block_state_bytes(dims, pr_t, row, mom),
            )
            wb, vb = unpack_block_state(stripe, dims, pr_t, row, mom)
            blocks_w.append(wb)
            blocks_v.append(vb)
        weights = [
            np.vstack([blocks_w[row][i] for row in range(pr_t)])
            for i in range(num_layers)
        ]
        velocity = (
            [
                np.vstack([blocks_v[row][i] for row in range(pr_t)])
                for i in range(num_layers)
            ]
            if mom
            else None
        )
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
    initial weights); every rank's store holds that one object.
    Returns ``(losses, full_weights, grids, restore_steps,
    degraded_steps, restored_checkpoints, store)`` on every surviving
    rank.  The training loop is the
    synchronous-SGD loop of :func:`~repro.dist.train.mlp_train_program`;
    a heartbeat at the top of each step fires this rank's scripted
    crashes, and any :class:`~repro.errors.PeerFailedError` (surfacing
    deterministically from communication with a dead or recovering peer)
    triggers the shrink / census / re-plan / restore sequence — from
    anywhere, including from *within* an earlier recovery attempt.

    ``sdc`` enables ABFT guards (see
    :func:`~repro.dist.train.mlp_train_program`).  This is also the
    escalation target of the ``recompute`` policy: a rank whose retry
    budget is exhausted raises
    :class:`~repro.errors.SDCUnrecoverableError`, which the supervisor
    treats exactly like a crash — the survivors shrink, re-plan and
    restore from the newest recoverable checkpoint.  Re-planning and
    the per-step GEMM charge use the engine's machine.
    """
    guard = make_guard(sdc)
    dims = MLPParams(step0.weights).dims
    n = x.shape[1]
    num_layers = len(step0.weights)
    # The step-0 checkpoint is always replicated, so every rank holds
    # it and even a census that degrades past every striped checkpoint
    # has a restore point.
    store = ShardStore()
    store.add_replica(0, step0)
    grids: List[Tuple[int, int]] = [(pr, pc)]
    restores: List[int] = []
    degraded: List[int] = []
    restored: List[Checkpoint] = []
    with payload_guard(guard):
        return _elastic_loop(
            world, x, y, store, grids, restores, degraded,
            restored, pr, pc,
            batch=batch, steps=steps, lr=lr, momentum=momentum,
            checkpoint_every=checkpoint_every, ckpt_mode=ckpt_mode,
            parity=parity, machine=world.engine.network.machine, guard=guard,
            dims=dims, n=n, num_layers=num_layers,
        )


def _elastic_loop(
    world, x, y, store, grids, restores, degraded, restored,
    cur_pr, cur_pc,
    *, batch, steps, lr, momentum, checkpoint_every, ckpt_mode, parity,
    machine, guard, dims, n, num_layers,
):
    start = 0
    restore_ckpt = store.get(0).checkpoint
    recovering = False
    while True:
        try:
            if recovering:
                # ULFM-style recovery: shrink to the survivors, census
                # the surviving shards, agree on the newest recoverable
                # checkpoint, re-plan the grid for the new world size,
                # and restore.  A further crash anywhere in this
                # sequence (a *cascading* failure) re-raises
                # PeerFailedError and re-enters recovery from the top.
                with span("recovery", comm=world):
                    world = world.shrink()
                    start, restore_ckpt, was_degraded = _census_restore(
                        world, store, dims, momentum
                    )
                    # Stale newer holdings carry the pre-crash grid's
                    # trajectory; the replay from ``start`` re-takes
                    # them on the new grid, so they must be dropped.
                    store.truncate(start)
                    cur_pr, cur_pc = replan_grid(world.size, dims, batch, machine)
                    grids.append((cur_pr, cur_pc))
                    restores.append(start)
                    restored.append(restore_ckpt)
                    if was_degraded:
                        degraded.append(start)
                recovering = False
            grid = GridComm(world, cur_pr, cur_pc)
            row_parts = [BlockPartition(d, grid.pr) for d in dims[1:]]
            col_part = BlockPartition(batch, grid.pc)
            w_locals, opt, losses = _restore(restore_ckpt, grid, row_parts, lr, momentum)
            # Local GEMM work per step (fwd + dX + dW ~ 3 GEMMs at
            # 2*m*k*n flops each), charged to the virtual clock so
            # compute-level faults — stragglers above all — actually
            # shape elastic timings instead of being invisible.
            step_seconds = sum(
                6.0 * row_parts[i].size(grid.row) * dims[i]
                * col_part.size(grid.col)
                for i in range(num_layers)
            ) / machine.flops_peak
            for step in range(start, steps):
                with span("step", comm=world, step=step):
                    world.heartbeat(step=step)
                    world.advance(step_seconds)
                    # Compute-phase heartbeat: emitted before the first
                    # collective of the step, while per-rank clocks still
                    # show *local* compute time — the only point where a
                    # straggler's dilation is visible per rank (the later
                    # collectives sync everyone to the slowest clock).
                    emit_heartbeat(world, step=step, phase="compute")
                    if (
                        checkpoint_every
                        and step % checkpoint_every == 0
                        and step > start
                    ):
                        # Erasure striping needs at least one data chunk
                        # per stripe; narrow grids fall back to
                        # replication (e.g. Pc=1 after heavy shrink).
                        k = grid.pc - parity
                        erasure = ckpt_mode == "erasure" and k >= 1
                        eff = "erasure" if erasure else "replicate"
                        with span(
                            "checkpoint", comm=world, step=step, mode=eff,
                            pr=grid.pr, pc=grid.pc, mom=int(bool(momentum)),
                        ):
                            if erasure:
                                stored = _take_shard(
                                    grid, store, step, w_locals, opt,
                                    losses, momentum, parity, dims,
                                )
                                mode_code = MODE_ERASURE
                            else:
                                ckpt = _take_checkpoint(
                                    grid, step, w_locals, opt, losses, momentum
                                )
                                store.add_replica(step, ckpt)
                                stored = store.get(step).stored_bytes()
                                mode_code = MODE_REPLICATE
                        _ckpt_event(world, "ckpt.take", step, mode_code, stored)
                    cols = _batch_columns(step, batch, n)
                    my_cols = col_part.take(cols, grid.col)
                    a_local = x[:, my_cols]
                    yb_local = y[my_cols]
                    loss_global, grads, _ = fc_stack_step_15d(
                        grid, w_locals, row_parts, a_local, yb_local,
                        batch=batch, step=step, guard=guard,
                    )
                    losses.append(loss_global)
                    with span("update", comm=world):
                        opt.step(w_locals, grads)
                    del grads  # else held through the next step's products: peak footprint
                emit_heartbeat(world, step=step, loss=loss_global, phase="elastic")
            full_weights = _full_blocks(grid, w_locals)
            return losses, full_weights, grids, restores, degraded, restored, store
        except PeerFailedError:
            recovering = True


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
    losses every striped checkpoint survives bit-exactly.
    ``sdc`` enables ABFT guards against injected bit flips.
    ``engine`` is ``None`` (a default supervised engine) or a prebuilt
    ``SimEngine(pr * pc, machine, trace=..., metrics=..., faults=...,
    supervise=True)``, which then carries the faults too (``faults=``
    beside it is an error).
    Raises :class:`~repro.errors.RankFailedError` if every rank dies.
    """
    check_mlp_inputs(x, y, batch)
    if checkpoint_every < 1:
        raise ConfigurationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if ckpt_mode not in CKPT_MODES:
        raise ConfigurationError(
            f"ckpt_mode must be one of {CKPT_MODES}, got {ckpt_mode!r}"
        )
    if parity < 1:
        raise ConfigurationError(f"parity must be >= 1, got {parity}")
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


def elastic_run_record(
    result: ElasticResult,
    *,
    batch: int,
    steps: int,
    checkpoint_every: int = 2,
    ckpt_mode: str = "erasure",
    parity: int = 1,
    sdc=None,
    meta=None,
    health_config=None,
    host=None,
):
    """Build the :class:`~repro.analysis.record.RunRecord` of an elastic run.

    The grid recorded is the *initial* ``Pr x Pc`` shape; the grid
    history, restore steps and degraded steps travel in the record's
    ``meta`` block (they describe the fault scenario, not the
    comparable configuration).  Requires the run to have been traced.
    """
    dims = (result.weights[0].shape[1],) + tuple(
        w.shape[0] for w in result.weights
    )
    pr, pc = result.grids[0]
    merged = {
        "grids": [list(g) for g in result.grids],
        "restore_steps": list(result.restore_steps),
        "degraded_steps": list(result.degraded_steps),
        "failed_ranks": list(result.sim.failed),
    }
    merged.update(meta or {})
    config = {
        "dims": [int(d) for d in dims],
        "batch": int(batch),
        "steps": int(steps),
        "checkpoint_every": int(checkpoint_every),
        "ckpt_mode": str(ckpt_mode),
        "parity": int(parity),
    }
    return trainer_run_record(
        result.engine, result.sim, trainer="elastic", config=config,
        pr=pr, pc=pc, sdc=sdc, meta=merged, health_config=health_config,
        host=host,
    )
