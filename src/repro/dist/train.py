"""End-to-end MLP training: serial reference and 1.5D distributed SGD.

:func:`distributed_mlp_train` runs synchronous mini-batch SGD for a
fully connected network on a simulated ``Pr x Pc`` process grid, using
exactly the layer products of Fig. 5.  Because synchronous SGD "obeys
the sequential consistency of the original algorithm" (paper Section
2), the distributed run must match :func:`serial_mlp_train`'s losses
and final weights to floating-point accuracy on *any* grid shape — the
integration tests assert precisely this.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.abft import make_guard
from repro.dist.grid import GridComm
from repro.dist.layers import relu, relu_grad
from repro.dist.loss import softmax_cross_entropy
from repro.dist.matmul15d import fc_stack_step_15d
from repro.simmpi.sdc import payload_guard
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.errors import ConfigurationError, ShapeError
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "MLPParams",
    "serial_mlp_train",
    "mlp_train_program",
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


def check_mlp_inputs(x: np.ndarray, y: np.ndarray, batch: int) -> None:
    """Reject a dataset/batch combination no MLP trainer can run.

    Shared by the serial, 1.5D, elastic and switching entry points so
    they fail alike: cyclic batch windows would otherwise wrap silently
    over a too-small or mis-shaped dataset.
    """
    if x.ndim != 2:
        raise ShapeError(f"x must be (features, samples), got {x.shape}")
    n = x.shape[1]
    if y.shape != (n,):
        raise ShapeError(f"y shape {y.shape} != ({n},)")
    if batch < 1 or batch > n:
        raise ConfigurationError(f"batch {batch} must lie in [1, {n}]")


def _batch_columns(step: int, batch: int, n: int, schedule=None) -> np.ndarray:
    """Batch indices for ``step``: a :class:`~repro.data.batches.BatchSchedule`
    when given, else the default deterministic cyclic window."""
    if schedule is not None:
        return schedule.columns(step)
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
    weight_decay: float = 0.0,
    schedule=None,
    lr_schedule=None,
) -> Tuple[MLPParams, List[float]]:
    """Single-process reference SGD; mutates and returns a copy of ``params``.

    ``schedule`` is an optional :class:`~repro.data.batches.BatchSchedule`
    (default: cyclic windows); ``lr_schedule`` an optional
    ``step -> learning rate`` callable applied before each update.
    """
    check_mlp_inputs(x, y, batch)
    n = x.shape[1]
    params = params.copy()
    weights = params.weights
    opt = SGD(lr=lr, momentum=momentum, weight_decay=weight_decay)
    losses: List[float] = []
    for step in range(steps):
        if lr_schedule is not None:
            opt.lr = float(lr_schedule(step))
        cols = _batch_columns(step, batch, n, schedule)
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


def mlp_train_program(
    comm,
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
    weight_decay: float = 0.0,
    schedule=None,
    lr_schedule=None,
    sdc=None,
):
    """The SPMD rank program for 1.5D MLP training.

    Every rank receives the same ``params0``/``x``/``y`` (mimicking
    identical initialisation and a shared dataset) and keeps only its
    1.5D blocks: weight rows ``rows_r`` per layer and batch columns
    ``cols_c`` per step.  Returns ``(local_weight_blocks, losses)``.

    ``sdc`` enables the ABFT guards of :mod:`repro.dist.abft`: a policy
    mode string (``"detect"``/``"correct"``/``"recompute"``), an
    :class:`~repro.simmpi.sdc.SDCPolicy`, or a shared
    :class:`~repro.dist.abft.SDCGuard`.  Guards checksum every local
    GEMM output block and escort every in-flight payload with an 8-byte
    digest; with no injected faults the guarded run is bit-identical to
    an unguarded one.
    """
    grid = GridComm(comm, pr, pc)
    guard = make_guard(sdc)
    n = x.shape[1]
    dims = params0.dims
    row_parts = [BlockPartition(d_out, grid.pr) for d_out in dims[1:]]
    w_locals = [
        part.take(w, grid.row, axis=0).copy()
        for part, w in zip(row_parts, params0.weights)
    ]
    col_part = BlockPartition(batch, grid.pc)
    opt = SGD(lr=lr, momentum=momentum, weight_decay=weight_decay)
    losses: List[float] = []
    with payload_guard(guard):
        for step in range(steps):
            with span("step", comm=comm, step=step):
                if lr_schedule is not None:
                    opt.lr = float(lr_schedule(step))
                cols = _batch_columns(step, batch, n, schedule)
                my_cols = col_part.take(cols, grid.col)
                a_local = x[:, my_cols]
                yb_local = y[my_cols]
                loss_global, grads, _ = fc_stack_step_15d(
                    grid, w_locals, row_parts, a_local, yb_local,
                    batch=batch, step=step, guard=guard,
                )
                losses.append(loss_global)
                with span("update", comm=comm):
                    opt.step(w_locals, grads)
                del grads  # else held through the next step's products: peak footprint
                emit_heartbeat(comm, step=step, loss=loss_global, phase="train")
    return w_locals, losses


def assemble_weights(
    result: SimResult, pr: int, pc: int, index: int
) -> List[np.ndarray]:
    """Rebuild full weight matrices from the rank-local row blocks of a run.

    ``result.values[rank][index]`` is that rank's list of per-layer row
    blocks.  Block ``r`` is replicated across grid row ``r``; the copy
    of column 0 (world rank ``r * pc``) is taken.
    """
    per_row = [result.values[r * pc][index] for r in range(pr)]
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
    weight_decay: float = 0.0,
    schedule=None,
    lr_schedule=None,
    sdc=None,
    engine: Optional[Union[SimEngine, str]] = None,
) -> Tuple[List[np.ndarray], List[float], SimResult]:
    """Train on a simulated ``pr x pc`` grid; returns full weights, losses, run.

    The returned losses are the per-step global losses (identical on
    every rank); the weights are reassembled from the rank blocks.
    ``engine`` may be ``None``/``"event"`` (a default discrete-event
    engine), ``"thread"`` (OS threads; bit-identical results, far slower
    on large grids — see ``docs/SIMMPI.md``) or a prebuilt
    :class:`~repro.simmpi.engine.SimEngine` with ``pr * pc`` ranks.  The
    prebuilt engine carries the run's machine, tracer and metrics sink,
    and keeps the tracer handle for a
    :class:`~repro.analysis.record.RunRecord` afterwards; to profile the
    run, call the trainer inside ``with ProfileSession():``.
    ``sdc`` turns on the ABFT guards (see :func:`mlp_train_program`).
    """
    check_mlp_inputs(x, y, batch)
    engine = resolve_engine(engine, pr * pc)
    # One shared guard so all ranks aggregate into the same sdc.* counters.
    guard = make_guard(sdc, single_thread=engine.backend == "event")
    result = engine.run(
        mlp_train_program,
        params0,
        x,
        y,
        pr=pr,
        pc=pc,
        batch=batch,
        steps=steps,
        lr=lr,
        momentum=momentum,
        weight_decay=weight_decay,
        schedule=schedule,
        lr_schedule=lr_schedule,
        sdc=guard,
    )
    weights = assemble_weights(result, pr, pc, 0)
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
        dropped=engine.tracer.dropped,
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

    See :func:`trainer_run_record` for ``engine``, ``sdc`` and ``host``.
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
