"""The 1.5D distributed layer products of Fig. 5.

On a ``Pr x Pc`` grid, weight matrices are row-partitioned over ``Pr``
(each block replicated ``Pc`` times) and activation matrices are
column-partitioned over ``Pc`` (each block replicated ``Pr`` times).
Rank ``(r, c)`` holds ``W[rows_r, :]`` and ``X[:, cols_c]``; the three
training products then need exactly the collectives of Fig. 5:

* **forward** ``Y = W X``: local GEMM gives ``Y[rows_r, cols_c]``; a
  Bruck all-gather over the ``Pr`` column group assembles the full
  ``Y[:, cols_c]`` on every rank of the group.
* **backward dX** ``dX = W^T dY``: local GEMM
  ``W[rows_r,:]^T dY[rows_r, cols_c]`` is one rank-``|rows_r|`` term of
  the sum over ``Pr``; a ring all-reduce over the column group
  completes it ("low rank intermediate matrices, one per process").
* **backward dW** ``dW = dY X^T``: local GEMM over the batch shard is a
  partial sum over ``Pc``; a ring all-reduce over the row group
  completes the rows this rank owns.

Degenerate grids recover the pure algorithms: ``Pr = 1`` is Fig. 2
(pure batch: no forward communication, one dW all-reduce), ``Pc = 1``
is Fig. 1 (pure model), so a batch-placed layer is the ``1 x P`` grid.

:func:`fc_stack_step_15d` chains the three products over a stack of
fully connected layers — forward, loss, backward — and is the one place
the Fig. 5 / Eq. 8 training step is spelled out; the MLP, elastic,
integrated-CNN and grid-switching trainers all call it.  Layers may run
on different grids, joined by the Eq. 6 :func:`redistribute_15d`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dist.abft import SDCGuard, inject_unguarded
from repro.dist.grid import GridComm
from repro.dist.layers import relu, relu_grad
from repro.dist.loss import softmax_cross_entropy
from repro.dist.partition import BlockPartition
from repro.errors import ConfigurationError, ShapeError
from repro.telemetry.spans import span

__all__ = [
    "forward_15d", "backward_dx_15d", "backward_dw_15d", "redistribute_15d", "fc_stack_step_15d",
]


def _local_gemm(
    grid: GridComm,
    compute: Callable[[], np.ndarray],
    *,
    guard: Optional[SDCGuard],
    layer: Optional[int],
    step: Optional[int],
    gemm: str,
) -> np.ndarray:
    """One local GEMM block, optionally under ABFT checksum protection.

    Both paths share the same computation, so a guarded run with no
    faults is bit-identical to an unguarded one.  Without a guard, an
    injected bit flip for this site corrupts the block silently (the
    negative control); with one, :meth:`SDCGuard.protect_block`
    verifies and recovers per its policy.
    """
    if guard is not None:
        return guard.protect_block(
            grid.comm, compute, layer=layer if layer is not None else 0,
            step=step if step is not None else 0, gemm=gemm,
        )
    return inject_unguarded(grid.comm, compute(), layer=layer, step=step, gemm=gemm)


def forward_15d(
    grid: GridComm,
    w_local: np.ndarray,
    x_local: np.ndarray,
    *,
    layer: Optional[int] = None,
    step: Optional[int] = None,
    guard: Optional[SDCGuard] = None,
) -> np.ndarray:
    """``Y[:, cols_c] = allgather_over_Pr(W[rows_r, :] @ X[:, cols_c])``.

    Parameters
    ----------
    grid:
        The process-grid communicators.
    w_local:
        This rank's weight rows, ``(rows_r, d_in)``.
    x_local:
        The full input activation for this batch shard, ``(d_in, b_c)``
        (replicated across the ``Pr`` group).
    layer, step, guard:
        SDC bookkeeping: the (layer, training step) identity of this
        GEMM for fault injection, and an optional
        :class:`~repro.dist.abft.SDCGuard` protecting the output block
        with row/column checksums.

    Returns the full output shard ``(d_out, b_c)``.
    """
    if w_local.shape[1] != x_local.shape[0]:
        raise ShapeError(
            f"W_local {w_local.shape} and X_local {x_local.shape} do not conform"
        )
    y_partial = _local_gemm(
        grid, lambda: w_local @ x_local,  # (rows_r, b_c)
        guard=guard, layer=layer, step=step, gemm="fwd",
    )
    if grid.pr == 1:
        return y_partial
    # Concatenation over the column group runs in model-row order because
    # GridComm built col_comm with key = r.
    return grid.col_comm.allgather(y_partial, axis=0)


def backward_dx_15d(
    grid: GridComm,
    w_local: np.ndarray,
    dy_local_rows: np.ndarray,
    *,
    layer: Optional[int] = None,
    step: Optional[int] = None,
    guard: Optional[SDCGuard] = None,
) -> np.ndarray:
    """``dX[:, cols_c] = allreduce_over_Pr(W[rows_r, :]^T @ dY[rows_r, cols_c])``."""
    if w_local.shape[0] != dy_local_rows.shape[0]:
        raise ShapeError(
            f"W_local {w_local.shape} and dY rows {dy_local_rows.shape} do not conform"
        )
    dx_partial = _local_gemm(
        grid, lambda: w_local.T @ dy_local_rows,  # (d_in, b_c)
        guard=guard, layer=layer, step=step, gemm="bwd_dx",
    )
    if grid.pr == 1:
        return dx_partial
    return grid.col_comm.allreduce_inplace(dx_partial)


def backward_dw_15d(
    grid: GridComm,
    dy_local_rows: np.ndarray,
    x_local: np.ndarray,
    *,
    layer: Optional[int] = None,
    step: Optional[int] = None,
    guard: Optional[SDCGuard] = None,
) -> np.ndarray:
    """``dW[rows_r, :] = allreduce_over_Pc(dY[rows_r, cols_c] @ X[:, cols_c]^T)``."""
    if dy_local_rows.shape[1] != x_local.shape[1]:
        raise ShapeError(
            f"dY rows {dy_local_rows.shape} and X_local {x_local.shape} do not conform"
        )
    dw_partial = _local_gemm(
        grid, lambda: dy_local_rows @ x_local.T,  # (rows_r, d_in)
        guard=guard, layer=layer, step=step, gemm="bwd_dw",
    )
    if grid.pc == 1:
        return dw_partial
    return grid.row_comm.allreduce_inplace(dw_partial)


def redistribute_15d(
    src: GridComm, dst: GridComm, a: np.ndarray, *, layer: int, direction: str = "fwd"
) -> np.ndarray:
    """Eq. 6: move a ``(d, b)`` shard from ``src``'s layout to ``dst``'s.

    One grid is the ``1 x P`` batch grid, whose rank ``r * Pc + c``
    holds sub-shard ``r`` of the ``Pr x Pc`` grid's batch column ``c``.
    Batch -> model Bruck all-gathers the sub-shards over the ``Pr``
    column group; model -> batch keeps this rank's own, a local slice.
    Runs under a ``redist`` span: ``direction`` is ``"fwd"`` for the
    activation entering ``layer``, ``"bwd"`` for the gradient leaving it.
    """
    if src.pr > 1 and dst.pr > 1:
        raise ConfigurationError(
            f"no redistribution from a {src.pr}x{src.pc} to a {dst.pr}x{dst.pc} "
            "grid: one side must be the 1 x P batch grid"
        )
    with span("redist", comm=dst.comm, layer=layer, direction=direction):
        if src.pr == 1:
            return dst.col_comm.allgather(a, axis=1)
        return BlockPartition(a.shape[1], src.pr).take(a, src.row, axis=1)


def fc_stack_step_15d(
    grid: Union[GridComm, Sequence[GridComm]],
    weights: Sequence[np.ndarray],
    row_parts: Sequence[BlockPartition],
    a_local: np.ndarray,
    labels: np.ndarray,
    *,
    batch: int,
    step: int,
    guard: Optional[SDCGuard],
    input_grad: bool = False,
) -> Tuple[float, List[np.ndarray], Optional[np.ndarray]]:
    """One Fig. 5 / Eq. 8 training step of a ReLU fully connected stack.

    Forward through every layer (caching the full ``(d_i, b_c)``
    activations), softmax cross-entropy against ``labels`` with the shard
    losses summed over the last grid's ``Pc`` batch groups, then backward:
    ``dW`` for every layer, ``dX`` between layers.  Each product runs
    under its ``fwd`` / ``bwd_dw`` / ``bwd_dx`` span (``loss`` for the
    loss all-reduce) and carries the ``(layer, step)`` identity and
    ``guard`` of :func:`forward_15d`.

    Parameters
    ----------
    grid:
        One grid for the whole stack, or one per layer; consecutive
        layers on different grids are joined by :func:`redistribute_15d`.
    weights, row_parts:
        Per layer, this rank's weight rows and the ``Pr`` row partition
        they were cut with.
    a_local, labels:
        The stack input in layer 0's layout ``(d_0, b)`` and the class
        ids of this rank's batch shard in the last layer's layout.
    batch:
        The global batch size (the ``1/B`` loss scaling).
    input_grad:
        Also compute the gradient w.r.t. ``a_local`` — one more ``dX``
        all-reduce over ``Pr``, needed only when layers precede the
        stack (the integrated trainer's convolutions).

    Returns ``(global_loss, weight_row_gradients, dX or None)``.
    """
    num_layers = len(weights)
    grids = [grid] * num_layers if isinstance(grid, GridComm) else list(grid)
    if len(grids) != num_layers:
        raise ConfigurationError(f"{len(grids)} grids for {num_layers} layers")
    comm = grids[0].comm
    a = a_local
    acts = []  # input of layer i, in layer i's layout
    zs = []
    for i, g in enumerate(grids):
        if i > 0 and g is not grids[i - 1]:
            a = redistribute_15d(grids[i - 1], g, a, layer=i)
        acts.append(a)
        with span("fwd", comm=comm, layer=i):
            z = forward_15d(g, weights[i], a, layer=i, step=step, guard=guard)
        zs.append(z)
        a = relu(z) if i < num_layers - 1 else z
    with span("loss", comm=comm):
        loss_local, dz = softmax_cross_entropy(zs[-1], labels, global_batch=batch)
        # Global loss: shard losses add over the last grid's batch groups.
        loss = float(
            grids[-1].row_comm.allreduce(np.array([loss_local]))[0]
        )
    grads: List[np.ndarray] = [None] * num_layers  # type: ignore[list-item]
    da = None
    for i in range(num_layers - 1, -1, -1):
        g = grids[i]
        dy_rows = row_parts[i].take(dz, g.row, axis=0)
        with span("bwd_dw", comm=comm, layer=i):
            grads[i] = backward_dw_15d(
                g, dy_rows, acts[i], layer=i, step=step, guard=guard
            )
        if i > 0 or input_grad:
            with span("bwd_dx", comm=comm, layer=i):
                da = backward_dx_15d(
                    g, weights[i], dy_rows, layer=i, step=step, guard=guard
                )
        if i > 0:
            if grids[i - 1] is not g:
                da = redistribute_15d(g, grids[i - 1], da, layer=i, direction="bwd")
            dz = relu_grad(zs[i - 1], da)
    return loss, grads, da if input_grad else None
