"""Per-layer grid switching: the Fig. 7 configuration, executable.

The paper's "improved case" runs convolutional layers pure batch
(``1 x P``) and fully connected layers on a ``Pr x Pc`` 1.5D grid,
arguing via Eq. 6 that the redistribution between the two layouts —
one all-gather of the boundary activations — is asymptotically free.
This module *executes* that scheme for MLPs: each layer is placed
``"batch"`` or ``"model"``, and the trainer inserts the exact
redistribution collectives at every layout switch:

* **batch layout**: activations split over all ``P`` ranks.  The global
  batch is partitioned hierarchically — first into ``Pc`` column-group
  shards, then each shard into ``Pr`` sub-shards — so that the union of
  a column group's sub-shards *is* the 1.5D shard ``cols_c``.
* **batch -> model** (forward): one all-gather over the ``Pr`` column
  group along the batch axis (literally Eq. 6).
* **model -> batch** (forward): a local slice; no communication.
* Backward transitions mirror these (the all-gather's data flow runs
  the other way).

Batch-placed layers hold the full weight matrix on every rank and
complete their weight gradient with an all-reduce over all ``P``
(Eq. 4); model-placed layers use the 1.5D products of Fig. 5.  As with
every trainer in this package, the result is numerically identical to
serial SGD.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.grid import GridComm
from repro.dist.layers import relu, relu_grad
from repro.dist.loss import softmax_cross_entropy
from repro.dist.matmul15d import backward_dw_15d, backward_dx_15d, forward_15d
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.dist.train import MLPParams, _batch_columns, check_mlp_inputs
from repro.errors import StrategyError
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine

__all__ = ["switching_mlp_train_program", "distributed_switching_mlp_train"]

_LAYOUT_BATCH = "batch"
_LAYOUT_MODEL = "model"


def _check_placements(placements: Sequence[str], num_layers: int) -> Tuple[str, ...]:
    placements = tuple(placements)
    if len(placements) != num_layers:
        raise StrategyError(
            f"{len(placements)} placements for {num_layers} layers"
        )
    for pl in placements:
        if pl not in (_LAYOUT_BATCH, _LAYOUT_MODEL):
            raise StrategyError(f"placement must be 'batch' or 'model', got {pl!r}")
    return placements


def switching_mlp_train_program(
    comm,
    params0: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    placements: Sequence[str],
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    schedule=None,
    lr_schedule=None,
):
    """SPMD rank program for per-layer grid switching (see module docs)."""
    grid = GridComm(comm, pr, pc)
    n = x.shape[1]
    dims = params0.dims
    placements = _check_placements(placements, len(params0.weights))
    p = grid.p

    # Hierarchical batch partitions: cols_c over Pc, then sub-shard r over Pr.
    col_part = BlockPartition(batch, pc)

    # Weight storage per layer.
    row_parts = [BlockPartition(d, grid.pr) for d in dims[1:]]
    weights: List[np.ndarray] = []
    for i, w_full in enumerate(params0.weights):
        if placements[i] == _LAYOUT_MODEL:
            weights.append(row_parts[i].take(w_full, grid.row, axis=0).copy())
        else:
            weights.append(w_full.copy())  # fully replicated

    opt = SGD(lr=lr, momentum=momentum)
    losses: List[float] = []
    num_layers = len(weights)

    for step in range(steps):
        if lr_schedule is not None:
            opt.lr = float(lr_schedule(step))
        cols = _batch_columns(step, batch, n, schedule)
        my_group_cols = col_part.take(cols, grid.col)  # this column group's shard
        sub_part = BlockPartition(len(my_group_cols), grid.pr)
        my_sub_cols = sub_part.take(my_group_cols, grid.row)  # batch-layout shard

        # ---- forward -------------------------------------------------------
        # Track the running activation and its layout.
        layout = _LAYOUT_BATCH
        a = x[:, my_sub_cols]
        acts: List[np.ndarray] = []   # input of layer i, in layer i's layout
        zs: List[np.ndarray] = []     # pre-activation of layer i, its layout
        for i in range(num_layers):
            want = placements[i]
            if want == _LAYOUT_MODEL and layout == _LAYOUT_BATCH:
                # Eq. 6 redistribution: all-gather batch columns over Pr.
                a = (
                    grid.col_comm.allgather(a, axis=1, algorithm="bruck")
                    if grid.pr > 1
                    else a
                )
            elif want == _LAYOUT_BATCH and layout == _LAYOUT_MODEL:
                a = sub_part.take(a, grid.row, axis=1)  # local slice, no comm
            layout = want
            acts.append(a)
            if want == _LAYOUT_MODEL:
                z = forward_15d(grid, weights[i], a)
            else:
                z = weights[i] @ a
            zs.append(z)
            a = relu(z) if i < num_layers - 1 else z

        # ---- loss ------------------------------------------------------------
        if layout == _LAYOUT_MODEL:
            yb = y[my_group_cols]
            loss_local, dz = softmax_cross_entropy(zs[-1], yb, global_batch=batch)
            loss_comm = grid.row_comm
        else:
            yb = y[my_sub_cols]
            loss_local, dz = softmax_cross_entropy(zs[-1], yb, global_batch=batch)
            loss_comm = grid.comm
        loss = float(loss_local)
        if loss_comm.size > 1:
            loss = float(loss_comm.allreduce(np.array([loss_local]), algorithm="ring")[0])
        losses.append(loss)

        # ---- backward ----------------------------------------------------------
        grads: List[Optional[np.ndarray]] = [None] * num_layers
        for i in range(num_layers - 1, -1, -1):
            if placements[i] == _LAYOUT_MODEL:
                dy_rows = row_parts[i].take(dz, grid.row, axis=0)
                grads[i] = backward_dw_15d(grid, dy_rows, acts[i])
                # No gradient flows past the first layer (the paper's
                # i >= 2 condition), so skip its dX all-reduce.
                da = backward_dx_15d(grid, weights[i], dy_rows) if i > 0 else None
            else:
                dw_partial = dz @ acts[i].T
                grads[i] = (
                    grid.comm.allreduce(dw_partial, algorithm="ring")
                    if p > 1
                    else dw_partial
                )
                da = weights[i].T @ dz
            if i > 0:
                prev = placements[i - 1]
                if prev == _LAYOUT_BATCH and placements[i] == _LAYOUT_MODEL:
                    da = sub_part.take(da, grid.row, axis=1)  # slice back
                elif prev == _LAYOUT_MODEL and placements[i] == _LAYOUT_BATCH:
                    da = (
                        grid.col_comm.allgather(da, axis=1, algorithm="bruck")
                        if grid.pr > 1
                        else da
                    )
                dz = relu_grad(zs[i - 1], da)
        opt.step(weights, grads)  # type: ignore[arg-type]
    return weights, losses


def distributed_switching_mlp_train(
    params0: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    placements: Sequence[str],
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    schedule=None,
    lr_schedule=None,
    engine: Optional[Union[SimEngine, str]] = None,
) -> Tuple[List[np.ndarray], List[float], SimResult]:
    """Run the switching trainer on a simulated grid; reassemble weights.

    ``engine`` is a backend name or a prebuilt
    :class:`~repro.simmpi.engine.SimEngine` with ``pr * pc`` ranks, as
    for :func:`~repro.dist.train.distributed_mlp_train`; a traced one
    exposes the redistribution collectives on its tracer.
    """
    placements = _check_placements(placements, len(params0.weights))
    check_mlp_inputs(x, y, batch)
    engine = resolve_engine(engine, pr * pc)
    result = engine.run(
        switching_mlp_train_program,
        params0,
        x,
        y,
        placements=placements,
        pr=pr,
        pc=pc,
        batch=batch,
        steps=steps,
        lr=lr,
        momentum=momentum,
        schedule=schedule,
        lr_schedule=lr_schedule,
    )
    weights: List[np.ndarray] = []
    for i in range(len(params0.weights)):
        if placements[i] == _LAYOUT_MODEL:
            blocks = [result.values[r * pc][0][i] for r in range(pr)]
            weights.append(np.vstack(blocks))
        else:
            weights.append(result.values[0][0][i].copy())
    losses = list(result.values[0][1])
    return weights, losses, result
