"""Executable Fig. 7: per-layer grid switching with live redistribution.

The paper's best configuration runs convolutional layers pure batch and
FC layers on a 1.5D ``Pr x Pc`` grid, switching layouts between them via
the Eq. 6 all-gather ("asymptotically free").  This example trains an
MLP with several placement mixes on the simulated runtime and checks
each against serial SGD — the redistribution collectives are exact, so
any mix of layouts trains identically to the serial algorithm.  (At
AlexNet scale the mixed placement wins outright — see ``repro run
fig7``; at this toy scale latency terms blur the comm-time ordering, so
the point here is correctness and the mechanics of the switch.)

Run:  python examples/grid_switching.py
"""

import numpy as np

from repro.data.synthetic import separable_blobs
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import MLPParams, serial_mlp_train
from repro.machine.params import cori_knl
from repro.report.tables import format_seconds
from repro.simmpi.engine import SimEngine


def main() -> None:
    # A network with the paper's AlexNet shape in miniature: a wide
    # activation-heavy front layer and weight-heavy back layers.
    dims = [64, 48, 256, 128, 4]
    x, y = separable_blobs(64, 256, 4, seed=3)
    params = MLPParams.init(dims, seed=4)
    kw = dict(batch=64, steps=10, lr=0.1, momentum=0.9)

    serial_w, serial_losses = serial_mlp_train(params, x, y, **kw)
    print(f"serial: loss {serial_losses[0]:.4f} -> {serial_losses[-1]:.4f}\n")

    mixes = [
        ("pure batch", ["batch", "batch", "batch", "batch"]),
        ("pure 1.5D model+batch", ["model", "model", "model", "model"]),
        ("front batch, back model (Fig. 7)", ["batch", "batch", "model", "model"]),
    ]
    print(f"{'configuration':<36} {'exact?':>7} {'sim comm time':>14}")
    for name, placements in mixes:
        weights, losses, run = distributed_switching_mlp_train(
            params, x, y, placements=placements, pr=4, pc=2,
            engine=SimEngine(8, cori_knl()), **kw,
        )
        exact = all(
            np.allclose(a, b, rtol=1e-9, atol=1e-11)
            for a, b in zip(weights, serial_w.weights)
        ) and np.allclose(losses, serial_losses, rtol=1e-9)
        print(f"{name:<36} {str(exact):>7} {format_seconds(run.time):>14}")

    print("\nEvery mix reproduces serial SGD exactly; each layout switch between")
    print("the batch and 1.5D layers costs one Eq.-6 all-gather — asymptotically")
    print("free relative to the model-parallel work it enables.")


if __name__ == "__main__":
    main()
