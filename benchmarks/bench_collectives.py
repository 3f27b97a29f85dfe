"""Micro-benchmarks of the simulated collectives and the cost models.

These measure host-side wall-clock of the executable algorithms and
check their emergent *virtual* timings against the closed forms —
the substrate validation underneath every figure.
"""

import numpy as np

from repro.collectives.cost import allgather_bruck, allreduce_ring, executed_time
from repro.machine.params import cori_knl
from repro.simmpi.engine import SimEngine

M = cori_knl()


def bench_sim_ring_allreduce_p8(benchmark):
    n = 100_000

    def run():
        def prog(comm):
            comm.allreduce(np.ones(n, dtype=np.float32))
            return comm.clock

        return SimEngine(8, M).run(prog).time

    simulated = benchmark(run)
    predicted = executed_time(allreduce_ring(8, n, M), M)
    assert abs(simulated - predicted) / predicted < 0.05


def bench_sim_bruck_allgather_p8(benchmark):
    n = 100_000

    def run():
        def prog(comm):
            comm.allgather(np.ones(n // 8, dtype=np.float32))
            return comm.clock

        return SimEngine(8, M).run(prog).time

    simulated = benchmark(run)
    predicted = allgather_bruck(8, n, M).total
    assert abs(simulated - predicted) / predicted < 0.05


def bench_cost_model_full_grid_sweep(benchmark):
    """Analytic sweep speed: all grids of P=512 on AlexNet."""
    from repro.core.optimizer import evaluate_grids
    from repro.machine.compute import ComputeModel
    from repro.nn import alexnet

    net = alexnet()
    cm = ComputeModel.knl_alexnet()

    points = benchmark(evaluate_grids, net, 2048, 512, M, cm)
    assert len(points) == 10
