"""Integrated model+batch+domain CNN training (paper Section 2.4, Fig. 10).

The configuration mirrors the paper's prescription for scaling beyond
the batch limit: early convolutional layers run *domain parallel* over
the grid's ``Pr`` dimension (row-partitioned images, halo exchanges,
fully replicated weights), the batch is sharded over ``Pc``, and the
fully connected layers run the 1.5D model+batch layout.  Between the
two regimes sits the Eq. 6 redistribution: one all-gather of the
convolutional features over the ``Pr`` group, which the paper shows is
asymptotically free.

As with the MLP trainer, synchronous SGD sequential consistency means
the distributed run must reproduce :func:`serial_cnn_train` exactly —
the integration tests compare losses and every weight tensor on
multiple grid shapes.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.dist.abft import make_guard
from repro.dist.conv_domain import DomainConv2D
from repro.dist.grid import GridComm
from repro.dist.layers import (
    conv2d_backward,
    conv2d_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    relu,
    relu_grad,
)
from repro.dist.loss import softmax_cross_entropy
from repro.dist.matmul15d import fc_stack_step_15d
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.dist.train import _batch_columns, assemble_weights, trainer_run_record
from repro.errors import ConfigurationError, ShapeError
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine
from repro.simmpi.sdc import payload_guard
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "IntegratedCNNConfig",
    "CNNParams",
    "serial_cnn_train",
    "distributed_cnn_train",
    "cnn_run_record",
]


@dataclasses.dataclass(frozen=True)
class IntegratedCNNConfig:
    """Architecture of the integrated trainer's CNN.

    Convolutions are odd-kernel, same-padding, with optional strides
    (``conv_strides``, default all 1 — strided layers downsample by the
    stride in both dims); each may be followed by a non-overlapping 2x2
    max pool.  ``fc_dims`` are the hidden/output widths after
    flattening.
    """

    in_channels: int
    height: int
    width: int
    conv_channels: Tuple[int, ...]
    conv_kernels: Tuple[int, ...]
    pool_after: Tuple[bool, ...]
    fc_dims: Tuple[int, ...]
    conv_strides: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.conv_channels)
        if not self.conv_strides:
            object.__setattr__(self, "conv_strides", (1,) * n)
        if len(self.conv_kernels) != n or len(self.pool_after) != n or len(self.conv_strides) != n:
            raise ConfigurationError(
                "conv_channels, conv_kernels, pool_after and conv_strides "
                "must have equal length"
            )
        if n == 0 or not self.fc_dims:
            raise ConfigurationError("need at least one conv layer and one FC layer")
        for k in self.conv_kernels:
            if k < 1 or k % 2 == 0:
                raise ConfigurationError(f"conv kernels must be odd, got {k}")
        for s in self.conv_strides:
            if s < 1:
                raise ConfigurationError(f"conv strides must be >= 1, got {s}")
        if self.in_channels < 1 or self.height < 1 or self.width < 1:
            raise ConfigurationError("input dims must be positive")
        h, w = self.height, self.width
        for i, s in enumerate(self.conv_strides):
            if h % s or w % s:
                raise ConfigurationError(
                    f"spatial dims {h}x{w} entering conv layer {i} are not "
                    f"divisible by its stride {s}"
                )
            h //= s
            w //= s
            if self.pool_after[i]:
                if h % 2 or w % 2:
                    raise ConfigurationError(
                        f"spatial dims {h}x{w} after conv layer {i} are odd; "
                        "2x2 pooling needs even extents"
                    )
                h //= 2
                w //= 2

    @property
    def num_convs(self) -> int:
        return len(self.conv_channels)

    def heights(self) -> Tuple[int, ...]:
        """Feature-map height entering each conv layer (and the final one)."""
        hs = [self.height]
        for stride, pooled in zip(self.conv_strides, self.pool_after):
            h = hs[-1] // stride
            hs.append(h // 2 if pooled else h)
        return tuple(hs)

    def feature_count(self) -> int:
        """Flattened feature dimension entering the first FC layer."""
        h, w = self.height, self.width
        for stride, pooled in zip(self.conv_strides, self.pool_after):
            h //= stride
            w //= stride
            if pooled:
                h //= 2
                w //= 2
        return self.conv_channels[-1] * h * w

    def validate_for_domain(self, pd: int) -> None:
        """Check that every stage's height splits evenly over ``pd`` parts.

        Equal, stride-aligned blocks at every stage keep pooling local
        and halo logic uniform — the alignment constraint a production
        domain-parallel implementation would also impose.
        """
        for i, h in enumerate(self.heights()[:-1]):
            stride = self.conv_strides[i]
            if h % (pd * stride):
                raise ConfigurationError(
                    f"height {h} entering conv layer {i} is not divisible by "
                    f"{pd} domain parts x stride {stride}"
                )
            if self.pool_after[i] and (h // stride // pd) % 2:
                raise ConfigurationError(
                    f"local height {h // stride // pd} at conv layer {i} is "
                    "odd; 2x2 pooling needs even local blocks"
                )


@dataclasses.dataclass
class CNNParams:
    """Weights: one ``(F, C, k, k)`` tensor per conv, one matrix per FC."""

    conv_weights: List[np.ndarray]
    fc_weights: List[np.ndarray]

    @classmethod
    def init(cls, config: IntegratedCNNConfig, seed: int = 0, scale: float = 0.1) -> "CNNParams":
        rng = np.random.default_rng(seed)
        conv_ws: List[np.ndarray] = []
        c_in = config.in_channels
        for c_out, k in zip(config.conv_channels, config.conv_kernels):
            conv_ws.append(scale * rng.standard_normal((c_out, c_in, k, k)))
            c_in = c_out
        fc_ws: List[np.ndarray] = []
        d_in = config.feature_count()
        for d_out in config.fc_dims:
            fc_ws.append(scale * rng.standard_normal((d_out, d_in)))
            d_in = d_out
        return cls(conv_ws, fc_ws)

    def copy(self) -> "CNNParams":
        return CNNParams(
            [w.copy() for w in self.conv_weights], [w.copy() for w in self.fc_weights]
        )

    def all_params(self) -> List[np.ndarray]:
        return self.conv_weights + self.fc_weights


# ---------------------------------------------------------------------------
# Serial reference
# ---------------------------------------------------------------------------


def _serial_cnn_step(config, params, xb, yb, batch):
    """One forward/backward pass; returns (loss, conv_grads, fc_grads)."""
    # Conv stack.
    conv_inputs, conv_pre, pool_args, pool_inshapes = [], [], [], []
    a = xb
    for i, w in enumerate(params.conv_weights):
        conv_inputs.append(a)
        z = conv2d_forward(
            a, w, stride=config.conv_strides[i], pad=config.conv_kernels[i] // 2
        )
        conv_pre.append(z)
        a = relu(z)
        if config.pool_after[i]:
            pool_inshapes.append(a.shape)
            a, arg = maxpool2d_forward(a, 2)
            pool_args.append(arg)
        else:
            pool_inshapes.append(None)
            pool_args.append(None)
    # Flatten: (B, C, H, W) -> (features, B) columns.
    b = xb.shape[0]
    flat_shape = a.shape
    acts = [a.reshape(b, -1).T]
    # FC stack.
    zs = []
    nfc = len(params.fc_weights)
    for i, w in enumerate(params.fc_weights):
        z = w @ acts[-1]
        zs.append(z)
        acts.append(relu(z) if i < nfc - 1 else z)
    loss, dz = softmax_cross_entropy(zs[-1], yb, global_batch=batch)
    # FC backward.
    fc_grads: List[Optional[np.ndarray]] = [None] * nfc
    for i in range(nfc - 1, -1, -1):
        fc_grads[i] = dz @ acts[i].T
        da = params.fc_weights[i].T @ dz
        if i > 0:
            dz = relu_grad(zs[i - 1], da)
    # Un-flatten and conv backward.
    d_feat = da.T.reshape(flat_shape)
    conv_grads: List[Optional[np.ndarray]] = [None] * config.num_convs
    for i in range(config.num_convs - 1, -1, -1):
        if config.pool_after[i]:
            d_feat = maxpool2d_backward(d_feat, pool_args[i], pool_inshapes[i], 2)
        dzc = relu_grad(conv_pre[i], d_feat)
        d_feat, conv_grads[i] = conv2d_backward(
            conv_inputs[i], params.conv_weights[i], dzc,
            stride=config.conv_strides[i], pad=config.conv_kernels[i] // 2,
        )
    return loss, conv_grads, fc_grads


def serial_cnn_train(
    config: IntegratedCNNConfig,
    params: CNNParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
) -> Tuple[CNNParams, List[float]]:
    """Single-process reference CNN SGD. ``x`` is ``(N, C, H, W)``."""
    if x.ndim != 4:
        raise ShapeError(f"x must be (N, C, H, W), got {x.shape}")
    n = x.shape[0]
    params = params.copy()
    opt = SGD(lr=lr, momentum=momentum)
    losses: List[float] = []
    for step in range(steps):
        cols = _batch_columns(step, batch, n)
        xb, yb = x[cols], y[cols]
        loss, conv_grads, fc_grads = _serial_cnn_step(config, params, xb, yb, batch)
        losses.append(loss)
        opt.step(params.all_params(), conv_grads + fc_grads)  # type: ignore[arg-type]
    return params, losses


# ---------------------------------------------------------------------------
# Distributed (domain convs + redistribution + 1.5D FCs)
# ---------------------------------------------------------------------------


def _cnn_train_program(
    comm,
    config: IntegratedCNNConfig,
    params0: CNNParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float,
    momentum: float,
    sdc=None,
):
    grid = GridComm(comm, pr, pc)
    guard = make_guard(sdc)
    n = x.shape[0]
    heights = config.heights()
    # Domain-parallel conv operators over the Pr (column) group.
    convs = [
        DomainConv2D(grid.col_comm, heights[i], k, k, stride=config.conv_strides[i])
        for i, k in enumerate(config.conv_kernels)
    ]
    conv_ws = [w.copy() for w in params0.conv_weights]  # fully replicated
    # 1.5D FC blocks.
    fc_full_dims = [w.shape[0] for w in params0.fc_weights]
    fc_row_parts = [BlockPartition(d, grid.pr) for d in fc_full_dims]
    fc_ws = [
        part.take(w, grid.row, axis=0).copy()
        for part, w in zip(fc_row_parts, params0.fc_weights)
    ]
    col_part = BlockPartition(batch, grid.pc)
    opt = SGD(lr=lr, momentum=momentum)
    losses: List[float] = []

    for step in range(steps):
        with span("step", comm=comm, step=step), payload_guard(guard):
            cols = _batch_columns(step, batch, n)
            my_cols = col_part.take(cols, grid.col)
            yb_local = y[my_cols]
            b_local = len(my_cols)
            # Input: my batch shard, my row block of each image.
            a = convs[0].partition.take(x[my_cols], grid.row, axis=2)
            # --- forward: domain conv stack ---
            conv_pre, pool_args, pool_inshapes = [], [], []
            for i, op in enumerate(convs):
                with span("conv_fwd", comm=comm, layer=i):
                    z = op.forward(a, conv_ws[i])
                conv_pre.append(z)
                a = relu(z)
                if config.pool_after[i]:
                    pool_inshapes.append(a.shape)
                    a, arg = maxpool2d_forward(a, 2)  # local rows are even-aligned
                    pool_args.append(arg)
                else:
                    pool_inshapes.append(None)
                    pool_args.append(None)
            # --- redistribution (Eq. 6): all-gather rows over the Pr group ---
            with span("redist", comm=comm):
                if grid.pr > 1:
                    a_full = grid.col_comm.allgather(a, axis=2, algorithm="bruck")
                else:
                    a_full = a
            flat_shape = a_full.shape
            # --- forward, loss, backward: 1.5D FC stack; the convs need dX ---
            loss_global, fc_grads, da = fc_stack_step_15d(
                grid, fc_ws, fc_row_parts,
                a_full.reshape(b_local, -1).T,  # (features, b_local)
                yb_local, batch=batch, step=step, guard=guard, input_grad=True,
            )
            losses.append(loss_global)
            # --- backward through the redistribution: slice my rows, no comm ---
            d_feat_full = da.T.reshape(flat_shape)
            pooled_part = BlockPartition(flat_shape[2], grid.pr)
            d_feat = pooled_part.take(d_feat_full, grid.row, axis=2).copy()
            # --- backward: domain conv stack ---
            conv_grads: List[Optional[np.ndarray]] = [None] * config.num_convs
            for i in range(config.num_convs - 1, -1, -1):
                with span("conv_bwd", comm=comm, layer=i):
                    if config.pool_after[i]:
                        d_feat = maxpool2d_backward(
                            d_feat, pool_args[i], pool_inshapes[i], 2
                        )
                    dzc = relu_grad(conv_pre[i], d_feat)
                    d_feat, dw_partial = convs[i].backward(dzc, conv_ws[i])
                    # Weights are replicated on all P ranks: all-reduce everywhere.
                    conv_grads[i] = grid.comm.allreduce(dw_partial, algorithm="ring")
            with span("update", comm=comm):
                opt.step(conv_ws + fc_ws, conv_grads + fc_grads)  # type: ignore[arg-type]
            # Held across the next step's FC products, these dW blocks
            # would add a weight-sized array per rank to the peak footprint.
            del fc_grads
            emit_heartbeat(comm, step=step, loss=loss_global, phase="integrated")
    return conv_ws, fc_ws, losses


def distributed_cnn_train(
    config: IntegratedCNNConfig,
    params0: CNNParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    engine: Optional[Union[SimEngine, str]] = None,
    sdc=None,
) -> Tuple[CNNParams, List[float], SimResult]:
    """Integrated training on a ``pr x pc`` grid; returns full params.

    ``pr`` partitions image rows for the convolutions and FC weight rows
    for the dense layers; ``pc`` shards the batch.  ``engine`` is
    ``None`` (a default engine) or a prebuilt
    :class:`~repro.simmpi.engine.SimEngine`, which
    carries the run's machine, tracer and metrics sink (see
    :func:`~repro.dist.train.distributed_mlp_train`).
    """
    config.validate_for_domain(pr)
    if batch % pc:
        raise ConfigurationError(
            f"batch {batch} must divide evenly over Pc={pc} for this trainer"
        )
    engine = resolve_engine(engine, pr * pc)
    # One shared guard object so all ranks aggregate into the same
    # sdc.* counters (and the caller can inspect them afterwards).
    result = engine.run(
        _cnn_train_program,
        config,
        params0,
        x,
        y,
        pr=pr,
        pc=pc,
        batch=batch,
        steps=steps,
        lr=lr,
        momentum=momentum,
        sdc=make_guard(sdc),
    )
    # Conv weights are replicated (take rank 0's); FC weights reassemble
    # from their row blocks.
    conv_ws = [w.copy() for w in result.values[0][0]]
    fc_ws = assemble_weights(result, pr, pc, 1)
    losses = list(result.values[0][2])
    return CNNParams(conv_ws, fc_ws), losses, result


def cnn_run_record(
    engine,
    sim: SimResult,
    *,
    config: IntegratedCNNConfig,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    sdc=None,
    meta=None,
    host=None,
):
    """Build the :class:`~repro.analysis.record.RunRecord` of a traced run.

    ``config`` is summarized into JSON-safe comparable fields (conv
    stack shape plus FC dims); the trace is read in canonical order so
    the record is deterministic.  ``host`` opts in to the v5 host-time
    block (e.g. ``repro.profile.host_block(engine)``).
    """
    record_config = {
        "image": [int(config.in_channels), int(config.height), int(config.width)],
        "conv_channels": [int(c) for c in config.conv_channels],
        "fc_dims": [int(d) for d in config.fc_dims],
        "batch": int(batch),
        "steps": int(steps),
    }
    return trainer_run_record(
        engine, sim, trainer="integrated", config=record_config,
        pr=pr, pc=pc, sdc=sdc, meta=meta, host=host,
    )
