"""Randomized (hypothesis) properties of the trace-analysis layer.

Samples grid shapes, layer widths, batch sizes and fault plans the
hand-written tests did not enumerate, holding the two analysis
invariants of the acceptance criteria:

1. per-rank decomposition — ``compute + comm + wait == wall`` exactly,
   for every rank of every traced run; and
2. critical-path bound — the extracted path's virtual length never
   exceeds the run's makespan, and no event has negative slack.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import critical_path, rank_accounting, validate_run_record
from repro.dist.train import MLPParams, distributed_mlp_train, mlp_run_record
from repro.run import RunSpec, execute
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan, LinkFault, Straggler


@st.composite
def grids(draw, max_p=6):
    pr = draw(st.integers(1, max_p))
    pc = draw(st.integers(1, max(1, max_p // pr)))
    return pr, pc


def _check_invariants(events, clocks, makespan):
    accounting = rank_accounting(events, clocks=clocks)
    for a in accounting.accounts:
        residual = a.wall_s - (a.compute_s + a.comm_s + a.wait_s)
        assert abs(residual) <= 1e-9 * max(1.0, a.wall_s)
        assert a.compute_s >= -1e-12
    assert accounting.makespan_s <= makespan + 1e-15
    cp = critical_path(events, clocks=clocks)
    assert cp.length_s <= cp.makespan_s + 1e-15
    assert all(s >= -1e-12 for s in cp.slack)
    assert cp.comm_s >= 0.0
    return accounting, cp


@given(grid=grids(), hidden=st.integers(3, 17), batch=st.integers(4, 16))
@settings(max_examples=12, deadline=None)
def test_random_grid_invariants(grid, hidden, batch):
    pr, pc = grid
    if pc > batch or pr * pc < 2:
        return
    dims = (9, hidden, 4)
    rng = np.random.default_rng(hidden)
    x = rng.standard_normal((dims[0], 2 * batch))
    y = rng.integers(0, dims[-1], 2 * batch)
    engine = SimEngine(pr * pc, trace=True)
    _, _, sim = distributed_mlp_train(
        MLPParams.init(dims, seed=hidden), x, y,
        pr=pr, pc=pc, batch=batch, steps=2, engine=engine,
    )
    events = engine.tracer.canonical()
    _check_invariants(events, sim.clocks, sim.time)
    record = mlp_run_record(
        engine, sim, dims=dims, pr=pr, pc=pc, batch=batch, steps=2
    )
    validate_run_record(record.to_dict())


@given(
    crash_rank=st.integers(0, 3),
    crash_step=st.integers(1, 5),
    straggler=st.floats(1.0, 2.0),
    link_latency=st.floats(1.0, 4.0),
    seed=st.integers(0, 3),
)
@settings(max_examples=8, deadline=None)
def test_random_fault_plan_invariants(
    crash_rank, crash_step, straggler, link_latency, seed
):
    plan = FaultPlan(
        seed=seed,
        crashes=(Crash(rank=crash_rank, at_step=crash_step),),
        links=(LinkFault(src=0, dst=3, latency_factor=link_latency),),
        stragglers=(Straggler(rank=2, factor=straggler),),
    )
    run = execute(RunSpec(
        trainer="elastic", size=(8, 10, 6), pr=2, pc=2, batch=8, steps=6,
        seed=seed, faults=plan,
    ))
    events = run.engine.tracer.canonical()
    clocks = run.sim.clocks
    _check_invariants(events, clocks, max(clocks))
    record = run.record()
    validate_run_record(record.to_dict())
    assert record.dropped == 0
