"""Differential backend test matrix: thread vs event scheduler.

The discrete-event backend (:mod:`repro.simmpi.events`) promises
*bit-identical* observable behavior to the threaded backend for any
deterministic rank program: per-rank return values, final virtual
clocks, and the canonical trace.  This matrix runs the same programs —
collectives, all four trainers, and the fault/SDC/checkpoint gauntlets
— under ``backend="thread"`` and ``backend="event"`` and asserts exact
equality on all three surfaces.

Out of contract (and out of this matrix): :meth:`Request.test` probe
*results*, which are scheduling-dependent even between two threaded
runs, and tracer drop counts under ``max_events`` caps (the drop set
depends on global interleaving).
"""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_classification
from repro.dist.elastic import elastic_mlp_train
from repro.data.synthetic import synthetic_images
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
)
from repro.dist.summa2d import summa_matmul
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.errors import DeadlockError, RankFailedError
from repro.simmpi import collops
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import (
    BitFlipFault,
    Cascade,
    Crash,
    FaultPlan,
    LinkFault,
    MessageDrop,
    Straggler,
    TransientFault,
)

BACKENDS = ("thread", "event")


def assert_same(a, b, path="result"):
    """Recursive, array-aware bit-exact equality."""
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), f"{path}: array bits differ"
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_same(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def run_both(size, prog, *args, engine_kwargs=None, **kwargs):
    """Run ``prog`` under both backends; assert full observable parity.

    Returns the two engines for additional backend-specific assertions.
    """
    engine_kwargs = dict(engine_kwargs or {})
    engine_kwargs.setdefault("trace", True)
    results, engines = {}, {}
    for backend in BACKENDS:
        engine = SimEngine(size, backend=backend, **engine_kwargs)
        results[backend] = engine.run(prog, *args, **kwargs)
        engines[backend] = engine
    rt, re_ = results["thread"], results["event"]
    assert_same(list(rt.values), list(re_.values), "values")
    assert rt.clocks == re_.clocks, "final virtual clocks differ"
    assert rt.failed == re_.failed, "failed-rank sets differ"
    ct = engines["thread"].tracer.canonical()
    ce = engines["event"].tracer.canonical()
    assert len(ct) == len(ce), f"trace lengths differ: {len(ct)} vs {len(ce)}"
    for i, (et, ee) in enumerate(zip(ct, ce)):
        assert et == ee, f"canonical trace diverges at event {i}: {et} vs {ee}"
    return engines["thread"], engines["event"]


def run_both_trainer(trainer, size, *, engine_kwargs=None, **kwargs):
    """Differential run of a trainer that accepts ``engine=``."""
    engine_kwargs = dict(engine_kwargs or {})
    engine_kwargs.setdefault("trace", True)
    out, engines = {}, {}
    for backend in BACKENDS:
        engine = SimEngine(size, backend=backend, **engine_kwargs)
        out[backend] = trainer(engine=engine, **kwargs)
        engines[backend] = engine
    ct = engines["thread"].tracer.canonical()
    ce = engines["event"].tracer.canonical()
    assert len(ct) == len(ce)
    assert ct == ce, "canonical traces diverge"
    return out["thread"], out["event"]


# ---------------------------------------------------------------------------
# collectives and point-to-point primitives
# ---------------------------------------------------------------------------


def _collective_zoo(comm):
    rank = comm.rank
    out = {}
    vec = np.arange(6, dtype=np.float64) * (rank + 1)
    for alg in ("ring", "rd", "rabenseifner", "naive"):
        out[f"allreduce.{alg}"] = collops.allreduce(comm, vec, algorithm=alg)
    for alg in ("bruck", "ring", "naive"):
        out[f"allgather.{alg}"] = collops.allgather_blocks(
            comm, np.full(3, float(rank)), algorithm=alg
        )
    out["reduce_scatter"] = collops.reduce_scatter_ring(
        comm, np.arange(2 * comm.size, dtype=np.float64) + rank
    )
    out["bcast"] = collops.bcast_binomial(comm, {"root": 7, "rank0": True}, root=0)
    out["gather"] = comm.gather((rank, rank * rank), root=comm.size - 1)
    out["scatter"] = comm.scatter(
        [np.full(2, float(i)) for i in range(comm.size)] if rank == 0 else None
    )
    out["reduce"] = comm.reduce(np.ones(4) * rank, root=0)
    comm.barrier()
    out["sendrecv"] = comm.sendrecv(
        rank, dest=(rank + 1) % comm.size, source=(rank - 1) % comm.size
    )
    # nonblocking: values must match; probe results are out of contract.
    req = comm.irecv(source=(rank - 1) % comm.size, tag=9)
    comm.send(np.float64(rank) / 3.0, dest=(rank + 1) % comm.size, tag=9)
    out["irecv"] = req.wait()
    return out


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_collectives_bit_identical(size):
    run_both(size, _collective_zoo)


@pytest.mark.parametrize("size", [4, 6])
def test_split_and_subcommunicators(size):
    def prog(comm):
        rank = comm.rank
        row = comm.split(color=rank % 2, key=rank)
        a = row.allreduce(np.arange(4, dtype=np.float64) + rank)
        col = comm.split(color=rank // 2)
        b = col.allgather_object(rank * 10)
        return a, b, (row.rank, row.size, col.rank, col.size)

    run_both(size, prog)


def test_halo_exchange(size=5):
    def prog(comm):
        local = np.full((3, 4), float(comm.rank))
        return collops.halo_exchange_1d(comm, local[:1], local[-1:])

    run_both(size, prog)


# ---------------------------------------------------------------------------
# the four trainers
# ---------------------------------------------------------------------------

X, Y = synthetic_classification(10, 48, 5, seed=7)


@pytest.mark.parametrize("pr,pc", [(2, 2), (3, 2), (1, 4)])
def test_mlp_trainer_differential(pr, pc):
    params0 = MLPParams.init((10, 9, 5), seed=1)
    (wt, lt, st), (we, le, se) = run_both_trainer(
        lambda engine: distributed_mlp_train(
            params0, X, Y, pr=pr, pc=pc, batch=12, steps=3, engine=engine
        ),
        pr * pc,
    )
    assert_same(wt, we, "weights")
    assert lt == le
    assert st.clocks == se.clocks


def test_mlp_trainer_accepts_backend_string():
    params0 = MLPParams.init((10, 9, 5), seed=1)
    wt, lt, _ = distributed_mlp_train(
        params0, X, Y, pr=2, pc=2, batch=12, steps=2, engine="thread"
    )
    we, le, _ = distributed_mlp_train(
        params0, X, Y, pr=2, pc=2, batch=12, steps=2, engine=None
    )
    assert lt == le
    assert_same(wt, we, "weights")


def test_cnn_trainer_differential():
    config = IntegratedCNNConfig(
        in_channels=2, height=8, width=8, conv_channels=(4,),
        conv_kernels=(3,), pool_after=(True,), fc_dims=(12, 5),
    )
    params0 = CNNParams.init(config, seed=3)
    xc, yc = synthetic_images(16, 2, 8, 8, 5, seed=5)
    (pt, lt, st), (pe, le, se) = run_both_trainer(
        lambda engine: distributed_cnn_train(
            config, params0, xc, yc, pr=2, pc=2, batch=8, steps=2, engine=engine
        ),
        4,
    )
    assert lt == le
    assert st.clocks == se.clocks
    assert_same(pt.conv_weights, pe.conv_weights, "conv")
    assert_same(pt.fc_weights, pe.fc_weights, "fc")


def test_elastic_trainer_differential_clean():
    params0 = MLPParams.init((10, 8, 5), seed=2)
    rt, re_ = {}, {}
    for backend in BACKENDS:
        res = elastic_mlp_train(
            params0, X, Y, pr=2, pc=2, batch=12, steps=4,
            checkpoint_every=2,
            engine=SimEngine(4, backend=backend, trace=True, supervise=True),
        )
        rt[backend] = res
    a, b = rt["thread"], rt["event"]
    assert a.losses == b.losses
    assert_same(a.weights, b.weights, "weights")
    assert a.sim.clocks == b.sim.clocks
    assert a.sim.failed == b.sim.failed
    assert a.engine.tracer.canonical() == b.engine.tracer.canonical()


@pytest.mark.parametrize("pr,pc", [(2, 2), (2, 3)])
def test_summa_differential(pr, pc):
    m, n = 8, 6
    k = 2 * int(np.lcm(pr, pc))
    rng = np.random.default_rng(13)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))

    def prog(comm):
        return summa_matmul(comm, a, b, pr, pc)

    run_both(pr * pc, prog)


# ---------------------------------------------------------------------------
# fault, SDC, and checkpoint gauntlets
# ---------------------------------------------------------------------------


def test_fault_plan_differential():
    """Transients, drops, link faults, and stragglers: same retries, same clocks."""
    plan = FaultPlan(
        seed=21,
        transients=(TransientFault(rank=1, dest=2, send_index=1, attempts=2),),
        links=(LinkFault(src=2, dst=3, latency_factor=8.0,
                         bandwidth_factor=4.0, t_start=0.0, t_end=1.0),),
        stragglers=(Straggler(rank=3, factor=2.5, jitter=0.1),),
    )

    def prog(comm):
        acc = []
        for round_ in range(3):
            acc.append(comm.allreduce(np.ones(8) * (comm.rank + round_)))
        comm.barrier()
        return acc

    tt, te = run_both(4, prog, engine_kwargs={"faults": plan})
    # fault events themselves are part of the canonical trace parity above;
    # double-check the retry/drop machinery actually fired.
    assert tt.tracer.faults()
    assert te.tracer.faults()


def fail_both(size, prog, plan):
    """Run an unsupervised faulted ``prog`` on both backends; same failures."""
    outcomes = {}
    for backend in BACKENDS:
        engine = SimEngine(size, backend=backend, faults=plan, timeout=0.5)
        with pytest.raises(RankFailedError) as exc_info:
            engine.run(prog)
        outcomes[backend] = sorted(
            (r, type(e).__name__) for r, e in exc_info.value.failures.items()
        )
    assert outcomes["thread"] == outcomes["event"]
    return outcomes["event"]


def test_message_drop_fails_identically():
    """An unsupervised drop deadlocks the receiver: same diagnosis both ways."""
    plan = FaultPlan(seed=2, drops=(MessageDrop(rank=0, dest=1, send_index=0),))

    def prog(comm):
        comm.barrier()
        return comm.rank

    fail_both(2, prog, plan)


def test_unsupervised_crash_aborts_identically():
    """An injected crash without supervision aborts the run the same way."""

    def prog(comm):
        for step in range(3):
            comm.heartbeat(step=step)
            comm.allreduce(np.full(2, float(comm.rank)))

    plan = FaultPlan(crashes=(Crash(rank=1, at_step=1),))
    assert (1, "SimulatedCrashError") in fail_both(4, prog, plan)


def test_crash_shrink_recover_differential():
    """Supervised crash + cascade + checkpoint restore, both checkpoint modes."""
    params0 = MLPParams.init((10, 8, 5), seed=4)
    for mode in ("erasure", "replicate"):
        plan = FaultPlan(
            seed=9,
            crashes=(Crash(rank=1, at_step=2),),
            cascades=(Cascade(rank=2, at_recovery=1),),
        )
        res = {}
        for backend in BACKENDS:
            res[backend] = elastic_mlp_train(
                params0, X, Y, pr=2, pc=2, batch=12, steps=6,
                checkpoint_every=2, ckpt_mode=mode,
                engine=SimEngine(
                    4, backend=backend, trace=True, faults=plan, supervise=True
                ),
            )
        a, b = res["thread"], res["event"]
        assert a.losses == b.losses, mode
        assert_same(a.weights, b.weights, f"weights[{mode}]")
        assert a.sim.failed == b.sim.failed
        assert a.sim.clocks == b.sim.clocks
        assert a.restore_steps == b.restore_steps
        assert a.grids == b.grids
        assert a.engine.tracer.canonical() == b.engine.tracer.canonical()


def test_sdc_gauntlet_differential():
    """Injected bit flips under ABFT guards: identical detection + repair."""
    params0 = MLPParams.init((10, 8, 5), seed=6)
    for policy in ("correct", "recompute"):
        plan = FaultPlan(
            seed=3,
            bitflips=(BitFlipFault(rank=1, layer=0, step=1, gemm="fwd",
                                   element=2, bit=12),),
        )
        out = {}
        for backend in BACKENDS:
            engine = SimEngine(4, backend=backend, trace=True, faults=plan)
            w, losses, sim = distributed_mlp_train(
                params0, X, Y, pr=2, pc=2, batch=12, steps=3,
                engine=engine, sdc=policy,
            )
            out[backend] = (w, losses, sim, engine)
        wt, lt, st, et = out["thread"]
        we, le, se, ee = out["event"]
        assert lt == le, policy
        assert_same(wt, we, f"weights[{policy}]")
        assert st.clocks == se.clocks
        assert et.tracer.canonical() == ee.tracer.canonical()
        assert et.tracer.faults("bitflip") and ee.tracer.faults("bitflip")


def test_deadlock_parity():
    """Both backends diagnose the same deadlock with the same message."""

    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=99)  # nobody ever sends this

    errs = {}
    for backend in BACKENDS:
        engine = SimEngine(2, backend=backend, timeout=0.5)
        with pytest.raises(RankFailedError) as exc_info:
            engine.run(prog)
        (err,) = exc_info.value.failures.values()
        assert isinstance(err, DeadlockError), backend
        errs[backend] = str(err)
    assert errs["thread"] == errs["event"]


def test_engine_reuse_differential():
    """Back-to-back runs on one engine stay bit-identical across backends."""
    def prog(comm, shift):
        return comm.allreduce(np.arange(5, dtype=np.float64) + comm.rank + shift)

    engines = {b: SimEngine(3, backend=b, trace=True) for b in BACKENDS}
    for shift in (0, 1):
        rt = engines["thread"].run(prog, shift)
        re_ = engines["event"].run(prog, shift)
        assert_same(list(rt.values), list(re_.values), f"run{shift}")
        assert rt.clocks == re_.clocks
    assert engines["thread"].tracer.canonical() == engines["event"].tracer.canonical()
