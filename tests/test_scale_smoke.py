"""Scale smoke tests: 1.5D training at P=512 and P=1024.

The discrete-event scheduler makes simulations of this size routine: it
runs these grids in seconds on one core.  Each test runs a full telemetry-enabled, fault-injected 1.5D
training step and asserts a generous wall-clock budget — the point is
to catch pathological scheduler regressions (quadratic wakeups), not
to be a benchmark; the calibrated gate lives in
``benchmarks/bench_simmpi.py``.  Host memory must grow with P, not P^2:
run-wide state such as the world communicator's rank tuple is held once.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.dist.train import MLPParams, distributed_mlp_train
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import FaultPlan, LinkFault, Straggler

RNG = np.random.default_rng(0)


def _scale_run(pr, pc, steps=1):
    dims = (64, max(64, pr), pr)
    batch = pc * 2
    x = RNG.standard_normal((dims[0], 2 * batch))
    y = RNG.integers(0, dims[-1], 2 * batch)
    params0 = MLPParams.init(dims, seed=1)
    plan = FaultPlan(
        seed=5,
        stragglers=(Straggler(rank=3, factor=2.0, jitter=0.05),),
        links=(
            LinkFault(
                src=0, dst=1, latency_factor=4.0, bandwidth_factor=2.0,
                t_start=0.0, t_end=1.0,
            ),
        ),
    )
    engine = SimEngine(pr * pc, trace=True, faults=plan)
    t0 = time.monotonic()
    _, losses, sim = distributed_mlp_train(
        params0, x, y, pr=pr, pc=pc, batch=batch, steps=steps, engine=engine
    )
    wall = time.monotonic() - t0
    # sanity on the run itself: it trained, it traced, the faults fired.
    assert len(losses) == steps and np.isfinite(losses).all()
    assert len(sim.clocks) == pr * pc
    assert min(sim.clocks) > 0.0
    assert sim.failed == ()
    assert engine.tracer.faults("link") or engine.tracer.faults("straggler")
    assert len(engine.tracer.events) > 100 * pr * pc  # telemetry really on
    return wall


@pytest.mark.parametrize("pr,pc", [(16, 32)], ids=["P512"])
def test_event_backend_p512_under_budget(pr, pc):
    wall = _scale_run(pr, pc)
    assert wall < 60.0, f"P={pr*pc} step took {wall:.1f}s"


@pytest.mark.parametrize("pr,pc", [(32, 32)], ids=["P1024"])
def test_event_backend_p1024_under_budget(pr, pc):
    wall = _scale_run(pr, pc)
    assert wall < 120.0, f"P={pr*pc} step took {wall:.1f}s"



def _barrier_traced_peak(p):
    """tracemalloc peak of one barrier run at P=p (after a warm-up run)."""
    engine = SimEngine(p)
    engine.run(lambda comm: comm.barrier())
    tracemalloc.start()
    try:
        engine.run(lambda comm: comm.barrier())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_world_comms_share_one_ranks_tuple():
    sim = SimEngine(64).run(lambda comm: (comm.world_ranks, comm.rank, comm.world_rank))
    first = sim.values[0][0]
    assert first == tuple(range(64))
    for ranks, rank, world_rank in sim.values:
        assert ranks is first
        assert rank == world_rank


def test_barrier_host_memory_grows_linearly():
    # A tuple of P world ranks per rank made this grow with P^2 (about
    # 17x from P=256 to P=1024); linear growth is 4x plus fixed costs.
    growth = _barrier_traced_peak(1024) / _barrier_traced_peak(256)
    assert growth < 6.0, f"barrier peak grew {growth:.1f}x for 4x the ranks"
