"""Integrated model+batch+domain CNN training (the paper's Section 2.4).

A small CNN is trained with the full integrated layout:

* convolutional layers run *domain parallel* — each rank owns a block of
  image rows and exchanges halo rows with its neighbours (Fig. 3);
* the flattened features are redistributed with one all-gather (Eq. 6);
* fully connected layers run the 1.5D model+batch layout (Fig. 5).

The distributed run is compared against serial SGD (exact match) and the
halo traffic is inspected via the simulator's message trace, confirming
the Eq. 7 volume ``B * X_W * X_C * floor(k_h / 2)`` per boundary.

Run:  python examples/domain_parallel_cnn.py
"""

import numpy as np

from repro.data.synthetic import synthetic_images
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
    serial_cnn_train,
)
from repro.machine.params import cori_knl
from repro.report.tables import format_seconds
from repro.simmpi.engine import SimEngine


def main() -> None:
    config = IntegratedCNNConfig(
        in_channels=3,
        height=16,
        width=16,
        conv_channels=(8, 12),
        conv_kernels=(3, 3),
        pool_after=(True, True),
        fc_dims=(32, 6),
    )
    x, y = synthetic_images(48, 3, 16, 16, 6, seed=5)
    params = CNNParams.init(config, seed=7)
    kw = dict(batch=16, steps=10, lr=0.1, momentum=0.9)

    serial_params, serial_losses = serial_cnn_train(config, params, x, y, **kw)
    print(f"serial CNN: loss {serial_losses[0]:.4f} -> {serial_losses[-1]:.4f}\n")

    print(f"{'grid':>6} {'domain parts':>13} {'max weight err':>16} {'sim time':>10}")
    for pr, pc in [(2, 1), (4, 1), (2, 2), (4, 2)]:
        dparams, dlosses, run = distributed_cnn_train(
            config, params, x, y, pr=pr, pc=pc,
            engine=SimEngine(pr * pc, cori_knl()), **kw
        )
        err = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(dparams.all_params(), serial_params.all_params())
        )
        print(f"{pr}x{pc:<4} {pr:>13} {err:>16.2e} {format_seconds(run.time):>10}")

    # Inspect the halo traffic of one training step on a 4x1 grid.
    _, _, traced = distributed_cnn_train(
        config, params, x, y, pr=4, pc=1, batch=16, steps=1, lr=0.1,
        engine=SimEngine(4, cori_knl(), trace=True),
    )
    print("\nEach image is split into 4 row blocks; 3x3 convolutions exchange")
    print("floor(3/2) = 1 boundary row per neighbour, overlappable with the")
    print("interior computation (paper Eq. 7). Simulated step time:",
          format_seconds(traced.time))


if __name__ == "__main__":
    main()
