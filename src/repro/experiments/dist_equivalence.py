"""Numerical-equivalence experiment: the executable algorithms.

The paper's analysis assumes the parallel algorithms compute *exactly*
what serial SGD computes ("we focus only on ... synchronous SGD ...
which obeys the sequential consistency of the original algorithm").
This experiment runs the 1.5D MLP trainer and the integrated
domain+batch+model CNN trainer on simulated grids and reports the
maximum deviation from the serial reference, plus the simulated
communication time of each grid.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.results import ResultTable
from repro.data.synthetic import separable_blobs, synthetic_images
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
    serial_cnn_train,
)
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import MLPParams, distributed_mlp_train, serial_mlp_train
from repro.experiments.common import ExperimentResult, Setting, default_setting
from repro.simmpi.engine import SimEngine

__all__ = ["run"]

MLP_GRIDS: Sequence[Tuple[int, int]] = ((1, 4), (4, 1), (2, 2), (2, 3), (4, 2))
CNN_GRIDS: Sequence[Tuple[int, int]] = ((2, 1), (4, 1), (2, 2), (1, 4))
SWITCHING_CASES: Sequence[Tuple[Tuple[str, ...], int, int]] = (
    (("batch", "model", "model"), 2, 2),   # the Fig. 7 shape
    (("batch", "batch", "model"), 2, 4),
    (("model", "batch", "model"), 4, 2),
)


def run(setting: Setting | None = None) -> ExperimentResult:
    setting = setting or default_setting()
    result = ExperimentResult(
        "dist",
        "Numerical equivalence of the distributed algorithms",
        (
            "synchronous 1.5D / domain-parallel SGD is sequentially consistent "
            "with serial SGD: identical losses and weights on every grid"
        ),
    )

    # -- 1.5D MLP ------------------------------------------------------------
    x, y = separable_blobs(16, 96, 6, seed=11)
    params = MLPParams.init([16, 32, 24, 6], seed=5)
    serial_w, serial_losses = serial_mlp_train(
        params, x, y, batch=24, steps=8, lr=0.1, momentum=0.9
    )
    mlp_table = ResultTable("1.5D MLP SGD vs serial (8 steps, B=24)")
    for pr, pc in MLP_GRIDS:
        weights, losses, res = distributed_mlp_train(
            params, x, y, pr=pr, pc=pc, batch=24, steps=8, lr=0.1, momentum=0.9,
            engine=SimEngine(pr * pc, setting.machine),
        )
        max_w_err = max(
            float(np.max(np.abs(a - b))) for a, b in zip(serial_w.weights, weights)
        )
        max_l_err = float(np.max(np.abs(np.array(serial_losses) - np.array(losses))))
        mlp_table.add_row(
            grid=f"{pr}x{pc}",
            max_weight_err=max_w_err,
            max_loss_err=max_l_err,
            final_loss=losses[-1],
            sim_comm_time_s=res.time,
        )
    result.tables.append(mlp_table)

    # -- integrated CNN -----------------------------------------------------
    cfg = IntegratedCNNConfig(
        in_channels=2, height=8, width=8,
        conv_channels=(4, 6), conv_kernels=(3, 3), pool_after=(True, False),
        fc_dims=(20, 5),
    )
    xi, yi = synthetic_images(32, 2, 8, 8, 5, seed=13)
    cparams = CNNParams.init(cfg, seed=9)
    serial_p, serial_cl = serial_cnn_train(cfg, cparams, xi, yi, batch=8, steps=5, lr=0.1)
    cnn_table = ResultTable("Integrated domain+batch+model CNN SGD vs serial (5 steps, B=8)")
    for pr, pc in CNN_GRIDS:
        dp, dl, res = distributed_cnn_train(
            cfg, cparams, xi, yi, pr=pr, pc=pc, batch=8, steps=5, lr=0.1,
            engine=SimEngine(pr * pc, setting.machine),
        )
        errs = [
            float(np.max(np.abs(a - b)))
            for a, b in zip(serial_p.conv_weights + serial_p.fc_weights, dp.all_params())
        ]
        cnn_table.add_row(
            grid=f"{pr}x{pc}",
            max_weight_err=max(errs),
            max_loss_err=float(np.max(np.abs(np.array(serial_cl) - np.array(dl)))),
            final_loss=dl[-1],
            sim_comm_time_s=res.time,
        )
    result.tables.append(cnn_table)

    # -- per-layer grid switching (Fig. 7 executable, Eq. 6 live) ----------
    sw_table = ResultTable("Grid-switching MLP SGD vs serial (8 steps, B=24)")
    for placements, pr, pc in SWITCHING_CASES:
        weights, losses, res = distributed_switching_mlp_train(
            params, x, y, placements=placements, pr=pr, pc=pc,
            batch=24, steps=8, lr=0.1, momentum=0.9,
            engine=SimEngine(pr * pc, setting.machine),
        )
        max_w_err = max(
            float(np.max(np.abs(a - b))) for a, b in zip(serial_w.weights, weights)
        )
        sw_table.add_row(
            placements="/".join(placements),
            grid=f"{pr}x{pc}",
            max_weight_err=max_w_err,
            max_loss_err=float(np.max(np.abs(np.array(serial_losses) - np.array(losses)))),
            sim_comm_time_s=res.time,
        )
    result.tables.append(sw_table)

    worst = max(
        max(r["max_weight_err"] for r in mlp_table.rows),
        max(r["max_weight_err"] for r in cnn_table.rows),
        max(r["max_weight_err"] for r in sw_table.rows),
    )
    result.notes.append(
        f"measured: max |weight deviation| from serial across all grids = {worst:.2e} "
        "(floating-point summation-order noise only)"
    )
    return result
