"""Per-layer grid switching: the Fig. 7 configuration, executable.

The paper's "improved case" runs convolutional layers pure batch
(``1 x P``) and fully connected layers on a ``Pr x Pc`` 1.5D grid,
arguing via Eq. 6 that the redistribution between the two layouts —
one all-gather of the boundary activations — is asymptotically free.
This module *executes* that scheme for MLPs: each layer is placed
``"batch"`` or ``"model"``.

* **batch layout** is the degenerate ``1 x P`` grid: full weights on
  every rank, local forward and ``dX``, ``dW`` all-reduced over all
  ``P`` (Eq. 4).  The global batch is partitioned hierarchically —
  first into ``Pc`` column-group shards, then each shard into ``Pr``
  sub-shards — so a column group's sub-shards *are* its 1.5D shard.
* **model layout** is the ``Pr x Pc`` grid and its Fig. 5 products.

The step is the shared :func:`~repro.dist.matmul15d.fc_stack_step_15d`
with one grid per layer; at every layout switch it runs the Eq. 6
:func:`~repro.dist.matmul15d.redistribute_15d` (batch -> model an
all-gather over ``Pr``, model -> batch a local slice, the backward pass
mirrored).  The result is numerically identical to serial SGD.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.grid import GridComm
from repro.dist.matmul15d import fc_stack_step_15d, redistribute_15d
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
    placements = _check_placements(placements, len(params0.weights))
    model_grid = GridComm(comm, pr, pc)
    # With Pr = 1 the two layouts coincide and no layer ever switches.
    batch_grid = GridComm(comm, 1, pr * pc) if pr > 1 else model_grid
    grids = [model_grid if pl == _LAYOUT_MODEL else batch_grid for pl in placements]
    row_parts = [BlockPartition(d, g.pr) for d, g in zip(params0.dims[1:], grids)]
    weights = [
        part.take(w, g.row, axis=0).copy()
        for part, w, g in zip(row_parts, params0.weights, grids)
    ]
    col_part = BlockPartition(batch, pc)
    opt = SGD(lr=lr, momentum=momentum)
    losses: List[float] = []

    for step in range(steps):
        if lr_schedule is not None:
            opt.lr = float(lr_schedule(step))
        cols = _batch_columns(step, batch, x.shape[1], schedule)
        # Hierarchical batch partitions: cols_c over Pc, then sub-shard r over Pr.
        group_cols = col_part.take(cols, model_grid.col)
        sub_cols = BlockPartition(len(group_cols), pr).take(group_cols, model_grid.row)
        a = x[:, sub_cols]
        if grids[0] is not batch_grid:
            a = redistribute_15d(batch_grid, grids[0], a, layer=0)
        labels = y[sub_cols if grids[-1] is batch_grid else group_cols]
        loss, grads, _ = fc_stack_step_15d(
            grids, weights, row_parts, a, labels, batch=batch, step=step, guard=None
        )
        losses.append(loss)
        opt.step(weights, grads)
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
    exposes the redistribution collectives on its tracer, each under a
    ``redist`` span.
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
