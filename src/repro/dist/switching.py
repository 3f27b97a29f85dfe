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

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.grid import GridComm
from repro.dist.matmul15d import fc_stack_step_15d, redistribute_15d
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.dist.train import (
    Checkpoint,
    MLPParams,
    Replica,
    _batch_columns,
    _cut_rows,
    check_inputs,
    sgd_program,
)
from repro.errors import StrategyError
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine

__all__ = ["distributed_switching_mlp_train"]

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


def _switching_cut(world, ckpt: Checkpoint, x, y, *, placements, pr: int,
                   pc: int, batch: int, lr: float, momentum: float) -> Replica:
    """Cut ``ckpt`` for the switching step: each layer on its placement's grid."""
    model_grid = GridComm(world, pr, pc)
    # With Pr = 1 the two layouts coincide and no layer ever switches.
    batch_grid = GridComm(world, 1, pr * pc) if pr > 1 else model_grid
    grids = [model_grid if pl == _LAYOUT_MODEL else batch_grid for pl in placements]
    row_parts, weights = _cut_rows(ckpt.weights, grids)
    col_part = BlockPartition(batch, pc)

    def step(t: int):
        cols = _batch_columns(t, batch, x.shape[1])
        # Hierarchical batch partitions: cols_c over Pc, then sub-shard r over Pr.
        group_cols = col_part.take(cols, model_grid.col)
        sub_cols = BlockPartition(len(group_cols), pr).take(group_cols, model_grid.row)
        a = x[:, sub_cols]
        if grids[0] is not batch_grid:
            a = redistribute_15d(batch_grid, grids[0], a, layer=0)
        labels = y[sub_cols if grids[-1] is batch_grid else group_cols]
        loss, grads, _ = fc_stack_step_15d(
            grids, weights, row_parts, a, labels, batch=batch, step=t, guard=None
        )
        return loss, grads

    return Replica(model_grid, weights, SGD(lr=lr, momentum=momentum), step)


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
    engine: Optional[Union[SimEngine, str]] = None,
) -> Tuple[List[np.ndarray], List[float], SimResult]:
    """Run the switching trainer on a simulated grid; reassemble weights.

    ``engine`` is ``None`` (a default engine) or a prebuilt
    :class:`~repro.simmpi.engine.SimEngine` with ``pr * pc`` ranks, as
    for :func:`~repro.dist.train.distributed_mlp_train`; a traced one
    exposes the redistribution collectives on its tracer, each under a
    ``redist`` span, and one ``hb`` heartbeat per rank per step (phase
    ``"switching"``).
    """
    placements = _check_placements(placements, len(params0.weights))
    check_inputs(x, y, batch, params0.weights[0].shape[1:])
    engine = resolve_engine(engine, pr * pc)
    cut = functools.partial(
        _switching_cut, x=x, y=y, placements=placements, pr=pr, pc=pc,
        batch=batch, lr=lr, momentum=momentum,
    )
    result = engine.run(
        sgd_program, cut, Checkpoint(0, params0.weights, None, ()),
        steps=steps, phase="switching",
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
