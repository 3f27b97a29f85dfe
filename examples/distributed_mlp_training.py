"""Run real 1.5D distributed SGD and verify it against serial training.

This is the executable counterpart of the paper's Fig. 5: an MLP is
trained on a simulated ``Pr x Pc`` process grid — weight rows split over
``Pr``, batch columns over ``Pc`` — using Bruck all-gathers and ring
all-reduces over an in-process simulated MPI.  Synchronous SGD is
sequentially consistent, so every grid must deliver the *same* losses
and weights as serial SGD; the script prints the deviations plus each
grid's simulated communication time.

Run:  python examples/distributed_mlp_training.py
"""

import numpy as np

from repro.data.synthetic import separable_blobs
from repro.dist.train import MLPParams, distributed_mlp_train, serial_mlp_train
from repro.machine.params import cori_knl
from repro.report.tables import format_seconds
from repro.simmpi.engine import SimEngine


def main() -> None:
    # A learnable toy problem: 3 Gaussian blobs in 16 dimensions.
    x, y = separable_blobs(16, 240, 3, seed=0)
    params = MLPParams.init([16, 64, 32, 3], seed=1)
    kw = dict(batch=48, steps=25, lr=0.15, momentum=0.9)

    serial_w, serial_losses = serial_mlp_train(params, x, y, **kw)
    print(f"serial: loss {serial_losses[0]:.4f} -> {serial_losses[-1]:.4f} "
          f"over {len(serial_losses)} steps\n")

    print(f"{'grid':>6} {'max weight err':>16} {'max loss err':>14} {'sim comm time':>14}")
    for pr, pc in [(1, 4), (4, 1), (2, 2), (2, 3), (4, 2)]:
        weights, losses, run = distributed_mlp_train(
            params, x, y, pr=pr, pc=pc, engine=SimEngine(pr * pc, cori_knl()), **kw
        )
        w_err = max(float(np.max(np.abs(a - b))) for a, b in zip(weights, serial_w.weights))
        l_err = float(np.max(np.abs(np.array(losses) - np.array(serial_losses))))
        print(f"{pr}x{pc:<4} {w_err:>16.2e} {l_err:>14.2e} {format_seconds(run.time):>14}")

    print("\nEvery grid reproduces serial SGD exactly (fp noise only) —")
    print("the sequential consistency the paper's analysis assumes.")


if __name__ == "__main__":
    main()
