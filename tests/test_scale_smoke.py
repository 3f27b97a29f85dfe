"""Scale smoke tests: 1.5D training at P=512 and P=1024.

The discrete-event scheduler makes simulations of this size routine: it
runs these grids in seconds on one core.  Each test runs a full telemetry-enabled, fault-injected 1.5D
training step and asserts a generous wall-clock budget — the point is
to catch pathological scheduler regressions (quadratic wakeups), not
to be a benchmark; the calibrated gate lives in
``benchmarks/bench_simmpi.py``.
"""

import time

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

