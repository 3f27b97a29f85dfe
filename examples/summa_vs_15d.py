"""Measure 2D SUMMA vs the 1.5D layer product on the simulated runtime.

Section 4 argues no regime makes 2D algorithms communication-favourable
for the DNN products: when the weights dominate, stationary-A merely
approaches 1.5D; when the activations dominate, every 2D variant must
move two matrices where 1.5D moves one.  This example runs *both*
algorithms (the executable stationary-C SUMMA and the Fig. 5 1.5D
forward) for the product ``Y = W X`` across weight/activation balances
and prints the traced per-process communication volumes side by side
with the closed-form predictions.

Run:  python examples/summa_vs_15d.py
"""

import numpy as np

from repro.core.summa import volume_1p5d
from repro.dist.grid import GridComm
from repro.dist.matmul15d import forward_15d
from repro.dist.partition import BlockPartition
from repro.dist.summa2d import summa_matmul
from repro.machine.params import cori_knl
from repro.simmpi.engine import SimEngine


def measured_volume(prog, p):
    engine = SimEngine(p, cori_knl(), trace=True)
    engine.run(prog)
    return engine.tracer.total_bytes("recv") / p / 8  # words per process


def main() -> None:
    rng = np.random.default_rng(1)
    pr = pc = 2
    print(f"grid {pr}x{pc}; product Y = W X with W (d x d), X (d x B)\n")
    print(f"{'regime':<22} {'d':>5} {'B':>5} {'SUMMA-C meas':>13} {'1.5D meas':>10} "
          f"{'SUMMA pred':>11} {'1.5D pred':>10}")
    for label, d, batch in [
        ("|W| >> Bd (FC-like)", 64, 8),
        ("|W| ~ Bd", 32, 32),
        ("|W| << Bd (conv)", 16, 256),
    ]:
        w = rng.standard_normal((d, d))
        x = rng.standard_normal((d, batch))

        def summa_prog(comm):
            return summa_matmul(comm, w, x, pr, pc)

        def p15d_prog(comm):
            grid = GridComm(comm, pr, pc)
            w_local = BlockPartition(d, pr).take(w, grid.row, axis=0)
            x_local = BlockPartition(batch, pc).take(x, grid.col, axis=1)
            return forward_15d(grid, w_local, x_local)

        v_summa = measured_volume(summa_prog, pr * pc)
        v_15d = measured_volume(p15d_prog, pr * pc)
        # Closed forms count received panel words with the same
        # (p-1)/p ownership discount the trace shows.
        pred_summa = (d * d / pr) * (pc - 1) / pc + (d * batch / pc) * (pr - 1) / pr
        pred_15d = volume_1p5d(d, batch, pr, pc)
        print(f"{label:<22} {d:>5} {batch:>5} {v_summa:>13.0f} {v_15d:>10.0f} "
              f"{pred_summa:>11.0f} {pred_15d:>10.0f}")

    print("\n1.5D never moves more than SUMMA — and the gap widens exactly")
    print("where the paper says it should (activation-dominated layers).")


if __name__ == "__main__":
    main()
