"""Model-validation experiment: Eq. 8 predictions vs executed training.

The paper's figures come from the closed-form costs; this repository
also *executes* the algorithms those costs describe.  This experiment
closes the loop: it trains real MLPs on simulated ``Pr x Pc`` grids,
measures the emergent per-iteration communication time on the virtual
clock, and compares it against the Eq. 8 prediction computed from the
iteration plan (one ``alpha`` per message each schedule sends, e.g. the
ring all-reduce's ``2(P-1)``, and 8-byte float64 elements, matching what
the trainer actually moves, plus the per-step scalar loss all-reduce the
trainers add for reporting).

A close match here means the analytic figures (6-10) are not just
internally consistent — they describe the communication the executable
algorithms really perform.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.plan import build_iteration_plan
from repro.core.results import ResultTable
from repro.core.strategy import ProcessGrid, Strategy
from repro.collectives.cost import allgather_bruck, allreduce_ring, executed_time
from repro.data.synthetic import synthetic_classification
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.experiments.common import ExperimentResult, Setting, default_setting
from repro.machine.params import MachineParams
from repro.nn import mlp
from repro.simmpi.engine import SimEngine

__all__ = ["run"]

#: (dims, batch, pr, pc) — dims chosen divisible by the grid extents so
#: block partitions are exactly even, like the closed forms assume.
DEFAULT_CASES: Sequence[Tuple[Tuple[int, ...], int, int, int]] = (
    ((256, 512, 256, 8), 64, 2, 2),
    ((256, 512, 256, 8), 64, 4, 1),
    ((256, 512, 256, 8), 64, 1, 4),
    ((128, 1024, 8), 32, 2, 4),
    ((512, 256, 128, 8), 96, 3, 2),
)


def run(
    setting: Setting | None = None,
    cases: Sequence[Tuple[Tuple[int, ...], int, int, int]] = DEFAULT_CASES,
    steps: int = 3,
) -> ExperimentResult:
    setting = setting or default_setting()
    # The trainers move float64 buffers: model elements as 8 bytes.
    machine = MachineParams(
        alpha=setting.machine.alpha,
        beta_per_byte=setting.machine.beta_per_byte,
        element_bytes=8,
        name=setting.machine.name + " (float64)",
    )
    result = ExperimentResult(
        "modelcheck",
        "Eq. 8 predictions vs executed 1.5D training",
        (
            "the communication the cost model charges is the communication "
            "the algorithm performs (implicit in using Eq. 8 to rank "
            "configurations)"
        ),
    )
    table = ResultTable("Per-iteration communication: predicted vs simulated (s)")
    worst_ratio = 1.0
    for dims, batch, pr, pc in cases:
        network = mlp(list(dims), name=f"MLP {'x'.join(map(str, dims))}")
        strategy = Strategy.same_grid_model(network, ProcessGrid(pr, pc))
        plan = build_iteration_plan(network, batch, strategy, machine)
        # The trainer also all-reduces the scalar loss over the Pc group.
        loss_ar = executed_time(allreduce_ring(pc, 1, machine), machine)
        predicted = sum(executed_time(s.cost, machine) for s in plan.steps) + loss_ar

        params = MLPParams.init(list(dims), seed=0)
        x, y = synthetic_classification(dims[0], max(batch, 2 * batch), dims[-1], seed=1)
        _, _, sim = distributed_mlp_train(
            params, x, y, pr=pr, pc=pc, batch=batch, steps=steps,
            lr=0.05, engine=SimEngine(pr * pc, machine),
        )
        simulated = sim.time / steps
        ratio = simulated / predicted if predicted > 0 else float("nan")
        worst_ratio = max(worst_ratio, max(ratio, 1 / ratio) if predicted > 0 else 1.0)
        table.add_row(
            network=network.name,
            B=batch,
            grid=f"{pr}x{pc}",
            predicted_s=predicted,
            simulated_s=simulated,
            simulated_over_predicted=round(ratio, 3),
        )
    result.tables.append(table)
    result.notes.append(
        "measured: simulated/predicted per-iteration communication within "
        f"{(worst_ratio - 1) * 100:.1f}% across all cases"
    )

    # ---- Eq. 6 validation: the grid-switching trainer -------------------
    sw_table, sw_worst = _switching_check(machine, steps)
    result.tables.append(sw_table)
    result.notes.append(
        "measured (switching trainer, Eq. 6 redistributions included): "
        f"within {(sw_worst - 1) * 100:.1f}%"
    )

    # ---- Eq. 7/9 validation: the integrated domain+batch+model CNN ------
    cnn_table, cnn_worst = _integrated_cnn_check(machine, steps)
    result.tables.append(cnn_table)
    result.notes.append(
        "measured (integrated CNN: halos + redistribution + 1.5D FCs): "
        f"within {(cnn_worst - 1) * 100:.1f}%"
    )
    return result


#: (dims, batch, placements, pr, pc) for the switching-trainer check.
SWITCHING_CASES: Sequence[Tuple[Tuple[int, ...], int, Tuple[str, ...], int, int]] = (
    ((256, 512, 256, 8), 64, ("batch", "model", "model"), 2, 2),
    ((256, 512, 256, 8), 64, ("batch", "batch", "model"), 4, 2),
    ((128, 512, 256, 8), 32, ("model", "batch", "model"), 2, 4),
)


def _predict_switching(
    dims: Tuple[int, ...],
    batch: int,
    placements: Tuple[str, ...],
    pr: int,
    pc: int,
    machine: MachineParams,
) -> float:
    """Compose the per-iteration comm prediction for the switching trainer.

    Sums, in the trainer's own order: forward Eq. 6 redistributions
    (Bruck all-gathers over Pr at each batch->model switch), the 1.5D
    layer collectives of Fig. 5 for model layers, full-P dW all-reduces
    for batch layers, backward model->batch re-gathers, and the scalar
    loss all-reduce.
    """
    p = pr * pc
    local_batch = batch / pc
    total = 0.0
    # Forward.
    layout = "batch"
    for i, pl in enumerate(placements):
        d_in, d_out = dims[i], dims[i + 1]
        if pl == "model" and layout == "batch" and pr > 1:
            total += allgather_bruck(pr, local_batch * d_in, machine).total  # Eq. 6
        layout = pl
        if pl == "model" and pr > 1:
            total += allgather_bruck(pr, local_batch * d_out, machine).total
    # Loss all-reduce (1 scalar) over Pc for a model-final layer, P otherwise.
    loss_group = pc if placements[-1] == "model" else p
    total += executed_time(allreduce_ring(loss_group, 1, machine), machine)
    # Backward.
    for i in range(len(placements) - 1, -1, -1):
        d_in, d_out = dims[i], dims[i + 1]
        weights = d_in * d_out
        if placements[i] == "model":
            if pc > 1:
                total += executed_time(allreduce_ring(pc, weights / pr, machine), machine)
            if pr > 1 and i > 0:
                total += executed_time(allreduce_ring(pr, local_batch * d_in, machine), machine)
        else:
            if p > 1:
                total += executed_time(allreduce_ring(p, weights, machine), machine)
        if i > 0 and placements[i] == "batch" and placements[i - 1] == "model" and pr > 1:
            # Backward model->batch boundary: re-gather dA over Pr.
            total += allgather_bruck(pr, local_batch * d_in, machine).total
    return total


def _switching_check(machine: MachineParams, steps: int):
    from repro.dist.switching import distributed_switching_mlp_train

    table = ResultTable(
        "Switching trainer (Eq. 6 live): predicted vs simulated (s)"
    )
    worst = 1.0
    for dims, batch, placements, pr, pc in SWITCHING_CASES:
        predicted = _predict_switching(dims, batch, placements, pr, pc, machine)
        params = MLPParams.init(list(dims), seed=0)
        x, y = synthetic_classification(dims[0], 2 * batch, dims[-1], seed=1)
        _, _, sim = distributed_switching_mlp_train(
            params, x, y, placements=placements, pr=pr, pc=pc,
            batch=batch, steps=steps, lr=0.05, engine=SimEngine(pr * pc, machine),
        )
        simulated = sim.time / steps
        ratio = simulated / predicted
        worst = max(worst, max(ratio, 1 / ratio))
        table.add_row(
            placements="/".join(placements),
            B=batch,
            grid=f"{pr}x{pc}",
            predicted_s=predicted,
            simulated_s=simulated,
            simulated_over_predicted=round(ratio, 3),
        )
    return table, worst


def _predict_integrated_cnn(config, batch: int, pr: int, pc: int, machine) -> float:
    """Compose the per-iteration comm prediction for the integrated CNN.

    Per domain-parallel convolution: the forward halo exchange's two
    chained directions (``pad`` rows downstream, ``max(0, k - pad - s)``
    rows upstream — Eq. 7's volumes, with the stride generalisation),
    the mirrored backward halo, and a full-``P`` ring all-reduce of the
    weight gradient.  Then the Eq. 6 redistribution all-gather of the
    flattened features over ``Pr``, the Fig. 5 collectives for the FC
    stack, and the scalar loss all-reduce.
    """
    a, b = machine.alpha, machine.beta
    p = pr * pc
    b_local = batch / pc
    total = 0.0
    h, w = config.height, config.width
    c_in = config.in_channels
    halo_specs = []
    for i, (c_out, k) in enumerate(zip(config.conv_channels, config.conv_kernels)):
        stride = config.conv_strides[i]
        pad = k // 2
        bottom = max(0, k - pad - stride)
        if pr > 1:
            # Each nonzero direction is one chained phase: alpha + beta*n.
            for rows in (pad, bottom):
                if rows > 0:
                    total += a + b * (b_local * rows * w * c_in)
        halo_specs.append((pad, bottom, w, c_in))
        if p > 1:
            total += executed_time(allreduce_ring(p, c_out * c_in * k * k, machine), machine)
        h //= stride
        w //= stride
        if config.pool_after[i]:
            h //= 2
            w //= 2
        c_in = c_out
    # Redistribution (Eq. 6) of the flattened conv features over Pr.
    feat = config.feature_count()
    if pr > 1:
        total += allgather_bruck(pr, b_local * feat, machine).total
    # FC stack (Fig. 5): forward all-gathers, backward dX and dW.
    d_in = feat
    for d_out in config.fc_dims:
        if pr > 1:
            total += allgather_bruck(pr, b_local * d_out, machine).total
        if pc > 1:
            total += executed_time(allreduce_ring(pc, d_in * d_out / pr, machine), machine)
        if pr > 1:
            # The CNN trainer all-reduces dX for every FC layer (the
            # gradient must flow back into the convolutions).
            total += executed_time(allreduce_ring(pr, b_local * d_in, machine), machine)
        d_in = d_out
    # Backward halos, mirrored (input-gradient rows, in-channel volumes).
    if pr > 1:
        for pad, bottom, w_i, c_i in reversed(halo_specs):
            for rows in (pad, bottom):
                if rows > 0:
                    total += a + b * (b_local * rows * w_i * c_i)
    # Scalar loss all-reduce over the Pc batch groups.
    total += executed_time(allreduce_ring(pc, 1, machine), machine)
    return total


#: (config_kwargs, batch, pr, pc) for the integrated-CNN check.
CNN_CASES = (
    (dict(in_channels=4, height=16, width=16, conv_channels=(8, 12),
          conv_kernels=(3, 3), pool_after=(True, False), fc_dims=(64, 8)),
     16, 2, 2),
    (dict(in_channels=3, height=16, width=16, conv_channels=(6, 8),
          conv_kernels=(3, 3), pool_after=(False, True), conv_strides=(2, 1),
          fc_dims=(32, 5)),
     8, 2, 2),
    (dict(in_channels=2, height=16, width=16, conv_channels=(4,),
          conv_kernels=(5,), pool_after=(True,), fc_dims=(16, 4)),
     12, 4, 1),
)


def _integrated_cnn_check(machine, steps: int):
    from repro.data.synthetic import synthetic_images
    from repro.dist.integrated import (
        CNNParams,
        IntegratedCNNConfig,
        distributed_cnn_train,
    )

    table = ResultTable(
        "Integrated CNN (Eq. 7/9 halos + Eq. 6 + Fig. 5): predicted vs simulated (s)"
    )
    worst = 1.0
    for kwargs, batch, pr, pc in CNN_CASES:
        config = IntegratedCNNConfig(**kwargs)
        predicted = _predict_integrated_cnn(config, batch, pr, pc, machine)
        x, y = synthetic_images(
            2 * batch, config.in_channels, config.height, config.width,
            config.fc_dims[-1], seed=2,
        )
        params = CNNParams.init(config, seed=0)
        _, _, sim = distributed_cnn_train(
            config, params, x, y, pr=pr, pc=pc, batch=batch, steps=steps,
            lr=0.05, engine=SimEngine(pr * pc, machine),
        )
        simulated = sim.time / steps
        ratio = simulated / predicted
        worst = max(worst, max(ratio, 1 / ratio))
        table.add_row(
            convs="/".join(
                f"{c}@{k}s{s}" for c, k, s in zip(
                    config.conv_channels, config.conv_kernels, config.conv_strides
                )
            ),
            B=batch,
            grid=f"{pr}x{pc}",
            predicted_s=predicted,
            simulated_s=simulated,
            simulated_over_predicted=round(ratio, 3),
        )
    return table, worst
