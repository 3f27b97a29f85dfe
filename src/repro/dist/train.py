"""End-to-end MLP training: serial reference, 1.5D distributed SGD, and
the one synchronous-SGD loop every distributed trainer runs.

:func:`distributed_mlp_train` runs synchronous mini-batch SGD for a
fully connected network on a simulated ``Pr x Pc`` process grid, using
exactly the layer products of Fig. 5.  Because synchronous SGD "obeys
the sequential consistency of the original algorithm" (paper Section
2), the distributed run must match :func:`serial_mlp_train`'s losses
and final weights to floating-point accuracy on *any* grid shape — the
integration tests assert precisely this.  The loop itself,
:func:`sgd_program`, is shared: a trainer differs only in how its cut
(:func:`mlp_cut` here) lays one step over the grid.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.abft import make_guard
from repro.dist.grid import GridComm
from repro.dist.layers import relu, relu_grad
from repro.dist.loss import softmax_cross_entropy
from repro.dist.matmul15d import fc_stack_step_15d
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.errors import ConfigurationError, PeerFailedError, ShapeError
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine
from repro.simmpi.sdc import payload_guard
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "MLPParams",
    "serial_mlp_train",
    "Checkpoint",
    "Replica",
    "sgd_program",
    "mlp_cut",
    "distributed_mlp_train",
    "mlp_run_record",
]


@dataclasses.dataclass
class MLPParams:
    """Weights of an MLP: ``weights[i]`` maps ``dims[i] -> dims[i+1]``."""

    weights: List[np.ndarray]

    @classmethod
    def init(cls, dims: Sequence[int], seed: int = 0, scale: float = 0.1) -> "MLPParams":
        """Deterministic Gaussian initialisation (same on every rank)."""
        if len(dims) < 2:
            raise ConfigurationError("an MLP needs at least input and output dims")
        rng = np.random.default_rng(seed)
        weights = [
            (scale * rng.standard_normal((dims[i + 1], dims[i]))).astype(np.float64)
            for i in range(len(dims) - 1)
        ]
        return cls(weights)

    @property
    def dims(self) -> Tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    def copy(self) -> "MLPParams":
        return MLPParams([w.copy() for w in self.weights])


#: ``x``'s dimensionality and layout for each sample axis: 1 for an
#: MLP's ``(features, samples)``, 0 for a CNN's ``(N, C, H, W)``.
_X_LAYOUTS = {1: (2, "(features, samples)"), 0: (4, "(N, C, H, W)")}


def check_inputs(
    x: np.ndarray, y: np.ndarray, batch: int, features: Sequence[int], *,
    sample_axis: int = 1,
) -> None:
    """Reject a dataset/batch combination no trainer can run.

    Shared by every trainer's entry point, serial or distributed, so
    they fail alike and before any rank starts: cyclic batch windows
    would otherwise wrap silently over a too-small or mis-shaped
    dataset, and a sample of the wrong shape would fail inside the
    ranks.  ``features`` is the shape of one sample the model takes (an
    MLP's input width, a CNN's ``(C, H, W)``); ``sample_axis`` selects
    the layout (see ``_X_LAYOUTS``).
    """
    ndim, layout = _X_LAYOUTS[sample_axis]
    if x.ndim != ndim:
        raise ShapeError(f"x must be {layout}, got {x.shape}")
    sample = x.shape[:sample_axis] + x.shape[sample_axis + 1:]
    if sample != tuple(features):
        raise ShapeError(f"x samples are {sample}, the model takes {tuple(features)}")
    n = x.shape[sample_axis]
    if y.shape != (n,):
        raise ShapeError(f"y shape {y.shape} != ({n},)")
    if batch < 1 or batch > n:
        raise ConfigurationError(f"batch {batch} must lie in [1, {n}]")


def _batch_columns(step: int, batch: int, n: int) -> np.ndarray:
    """Batch indices for ``step``: the deterministic cyclic window."""
    return (step * batch + np.arange(batch)) % n


def _mlp_forward(weights: Sequence[np.ndarray], x: np.ndarray):
    """Shared forward recursion: returns (activations, pre_activations)."""
    acts = [x]
    zs = []
    for i, w in enumerate(weights):
        z = w @ acts[-1]
        zs.append(z)
        acts.append(relu(z) if i < len(weights) - 1 else z)
    return acts, zs


def serial_mlp_train(
    params: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
) -> Tuple[MLPParams, List[float]]:
    """Single-process reference SGD; mutates and returns a copy of ``params``."""
    check_inputs(x, y, batch, params.weights[0].shape[1:])
    n = x.shape[1]
    params = params.copy()
    weights = params.weights
    opt = SGD(lr=lr, momentum=momentum)
    losses: List[float] = []
    for step in range(steps):
        cols = _batch_columns(step, batch, n)
        xb, yb = x[:, cols], y[cols]
        acts, zs = _mlp_forward(weights, xb)
        loss, dz = softmax_cross_entropy(zs[-1], yb, global_batch=batch)
        losses.append(loss)
        grads: List[Optional[np.ndarray]] = [None] * len(weights)
        for i in range(len(weights) - 1, -1, -1):
            grads[i] = dz @ acts[i].T
            if i > 0:
                da = weights[i].T @ dz
                dz = relu_grad(zs[i - 1], da)
        opt.step(weights, grads)  # type: ignore[arg-type]
    return params, losses


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
class Replica:
    """One rank's cut of a :class:`Checkpoint`: its parameter blocks on
    ``grid``, their optimizer, and ``step(t) -> (global_loss, grads)``."""

    grid: GridComm
    params: List[np.ndarray]
    opt: SGD
    step: Callable[[int], Tuple[float, List[np.ndarray]]]


def sgd_program(world, cut, ckpt: Checkpoint, *, steps: int, phase: str,
                guard=None, recovery=None):
    """The SPMD rank program of every synchronous-SGD trainer.

    ``cut(world, ckpt)`` builds this rank's :class:`Replica`; the loop
    runs steps ``ckpt.step .. steps - 1``, each under a ``step`` span
    with an ``update`` span and one ``hb`` heartbeat tagged ``phase``,
    with ``guard`` escorting every payload.  Returns ``(params, losses)``.

    A ``recovery`` hook makes the run elastic: the loop calls
    ``recovery.before_step(replica, step, losses)`` at the top of each
    step, hands a :class:`~repro.errors.PeerFailedError` to
    ``recovery.recover(world) -> (world, checkpoint)`` and cuts again,
    and returns ``recovery.finish(replica)`` as the params.
    """
    with payload_guard(guard):
        while True:
            try:
                rep = cut(world, ckpt)
                losses = list(ckpt.losses)
                for step in range(ckpt.step, steps):
                    with span("step", comm=world, step=step):
                        if recovery is not None:
                            recovery.before_step(rep, step, losses)
                        loss, grads = rep.step(step)
                        losses.append(loss)
                        with span("update", comm=world):
                            rep.opt.step(rep.params, grads)
                        del grads  # else held through the next step's products: peak footprint
                        emit_heartbeat(world, step=step, loss=loss, phase=phase)
                return (rep.params if recovery is None else recovery.finish(rep)), losses
            except PeerFailedError:
                if recovery is None:
                    raise
            # Outside the handler, so the failed step's frames are freed first.
            world, ckpt = recovery.recover(world)


def _cut_rows(weights: Sequence[np.ndarray], grids: Sequence[GridComm]):
    """Each weight's 1.5D row block on its grid: ``(partitions, blocks)``."""
    parts = [BlockPartition(w.shape[0], g.pr) for w, g in zip(weights, grids)]
    return parts, [p.take(w, g.row, axis=0).copy() for p, w, g in zip(parts, weights, grids)]


def mlp_cut(world, ckpt: Checkpoint, x, y, *, pr: int, pc: int, batch: int,
            lr: float, momentum: float, guard=None) -> Replica:
    """Cut ``ckpt`` for the 1.5D MLP step on a ``pr x pc`` grid of ``world``.

    Every rank receives the same full state and dataset and keeps only
    its 1.5D blocks: weight (and momentum) rows ``rows_r`` per layer,
    batch columns ``cols_c`` per step.  ``guard`` (an
    :class:`~repro.dist.abft.SDCGuard`) checksums every local GEMM
    output block; with no injected faults a guarded run is bit-identical
    to an unguarded one.
    """
    grid = GridComm(world, pr, pc)
    row_parts, params = _cut_rows(ckpt.weights, [grid] * len(ckpt.weights))
    opt = SGD(lr=lr, momentum=momentum)
    if ckpt.velocity is not None:
        opt.set_state({i: p.take(v, grid.row, axis=0)
                       for i, (p, v) in enumerate(zip(row_parts, ckpt.velocity))})
    col_part = BlockPartition(batch, grid.pc)

    def step(t: int):
        cols = col_part.take(_batch_columns(t, batch, x.shape[1]), grid.col)
        loss, grads, _ = fc_stack_step_15d(
            grid, params, row_parts, x[:, cols], y[cols], batch=batch, step=t, guard=guard
        )
        return loss, grads

    return Replica(grid, params, opt, step)


def assemble_weights(
    result: SimResult, pr: int, pc: int, first: int = 0
) -> List[np.ndarray]:
    """Rebuild full weight matrices from the rank-local row blocks of a run.

    ``result.values[rank][0][first:]`` is that rank's list of per-layer
    row blocks (the params :func:`sgd_program` returns).  Block ``r`` is
    replicated across grid row ``r``; the copy of column 0 (world rank
    ``r * pc``) is taken.
    """
    per_row = [result.values[r * pc][0][first:] for r in range(pr)]
    return [np.vstack(blocks) for blocks in zip(*per_row)]


def distributed_mlp_train(
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
    sdc=None,
    engine: Optional[Union[SimEngine, str]] = None,
) -> Tuple[List[np.ndarray], List[float], SimResult]:
    """Train on a simulated ``pr x pc`` grid; returns full weights, losses, run.

    The returned losses are the per-step global losses (identical on
    every rank); the weights are reassembled from the rank blocks.
    ``engine`` may be ``None`` (a default engine) or a prebuilt
    :class:`~repro.simmpi.engine.SimEngine` with ``pr * pc`` ranks.  The
    prebuilt engine carries the run's machine, tracer and metrics sink,
    and keeps the tracer handle for a
    :class:`~repro.analysis.record.RunRecord` afterwards; to profile the
    run, call the trainer inside ``with ProfileSession():``.
    ``sdc`` turns on the ABFT guards of :mod:`repro.dist.abft` (see
    :func:`mlp_cut`): a policy mode string
    (``"detect"``/``"correct"``/``"recompute"``), an
    :class:`~repro.simmpi.sdc.SDCPolicy`, or a shared
    :class:`~repro.dist.abft.SDCGuard`.
    """
    check_inputs(x, y, batch, params0.weights[0].shape[1:])
    engine = resolve_engine(engine, pr * pc)
    # One shared guard so all ranks aggregate into the same sdc.* counters.
    guard = make_guard(sdc)
    cut = functools.partial(
        mlp_cut, x=x, y=y, pr=pr, pc=pc, batch=batch, lr=lr,
        momentum=momentum, guard=guard,
    )
    result = engine.run(
        sgd_program, cut, Checkpoint(0, params0.weights, None, ()),
        steps=steps, phase="train", guard=guard,
    )
    weights = assemble_weights(result, pr, pc)
    losses = list(result.values[0][1])
    return weights, losses, result


def trainer_run_record(
    engine: SimEngine,
    sim: SimResult,
    *,
    trainer: str,
    config: dict,
    pr: int,
    pc: int,
    sdc=None,
    meta=None,
    health_config=None,
    host=None,
):
    """The :class:`~repro.analysis.record.RunRecord` of a traced trainer run.

    ``engine`` must be the (tracing) engine the run executed on and
    ``sim`` its result; the trace is read in canonical (replay-stable)
    order so the record is deterministic for a given program.  ``sdc``
    is the run's ``sdc`` argument in any accepted form: its policy mode
    joins ``config`` so guarded records get a distinct config key
    (unguarded records stay byte-identical to pre-SDC baselines).
    ``host`` opts in to the v5 host-time block (e.g.
    ``repro.profile.host_block(engine)``).
    """
    from repro.analysis.record import build_run_record

    if sdc is not None:
        mode = sdc if isinstance(sdc, str) else make_guard(sdc).policy.mode
        config = {**config, "sdc": mode}
    return build_run_record(
        engine.tracer.canonical(),
        trainer=trainer,
        config=config,
        pr=pr,
        pc=pc,
        clocks=sim.clocks,
        machine=engine.network.machine,
        meta=meta,
        health_config=health_config,
        host=host,
    )


def mlp_run_record(
    engine: SimEngine,
    sim: SimResult,
    *,
    dims: Sequence[int],
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    sdc=None,
    meta=None,
    health_config=None,
    host=None,
):
    """Build the :class:`~repro.analysis.record.RunRecord` of a traced run.

    The 1.5D MLP shorthand of :func:`trainer_run_record` (see it for
    ``engine``, ``sdc`` and ``host``), for a run made without
    ``repro.run.execute``, whose ``Run.record`` covers every trainer.
    """
    config = {
        "dims": list(int(d) for d in dims),
        "batch": int(batch),
        "steps": int(steps),
    }
    return trainer_run_record(
        engine, sim, trainer="train", config=config, pr=pr, pc=pc,
        sdc=sdc, meta=meta, health_config=health_config, host=host,
    )
