"""Property tests for the discrete-event simmpi scheduler.

Hypothesis drives the scheduler through randomized communication
patterns and checks the invariants its determinism contract rests on:
per-rank virtual time never runs backwards, deadlock detection still
fires on any unmatched receive, and results are independent of both
tasklet spawn order and repetition.  The pooled worker threads that
host tasklets are checked for reuse, the parking cap, fork safety and
clean thread-local state between runs.  The deprecated compatibility
names (``backend=``, ``make_guard(single_thread=)``) are pinned inert.
"""

import gc
import os
import signal
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.abft import make_guard
from repro.errors import DeadlockError, RankFailedError
from repro.simmpi import events
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import BitFlipFault, FaultPlan
from repro.simmpi.sdc import current_guard, payload_guard
from repro.telemetry.spans import current_path, span


def _ring_program(comm, rounds, payload):
    """A deterministic mixed point-to-point / collective workload."""
    rank, size = comm.rank, comm.size
    history = []
    for r in range(rounds):
        nxt, prv = (rank + 1) % size, (rank - 1) % size
        comm.send(np.arange(payload, dtype=np.float64) + rank + r, nxt, tag=r)
        got = comm.recv(prv, tag=r)
        history.append(float(got.sum()))
        if r % 2 == 0:
            total = comm.allreduce(np.full(3, float(rank + r)))
            history.append(float(total[0]))
        else:
            comm.barrier()
    return tuple(history)


sizes = st.integers(min_value=1, max_value=7)
rounds = st.integers(min_value=1, max_value=4)


@given(size=sizes, rounds=rounds, payload=st.integers(1, 16))
@settings(max_examples=25, deadline=None)
def test_virtual_time_monotone_per_rank(size, rounds, payload):
    """Each rank's local clock never runs backwards.

    ``t_start`` is the issuing rank's clock when the operation began, so
    per rank it must be non-decreasing in program order.  (``t_end`` of a
    *send* is the future delivery time at the receiver, so it is not
    monotone and is only checked to bound its own ``t_start``.)
    """
    engine = SimEngine(size, trace=True)
    result = engine.run(_ring_program, rounds, payload)
    last = [0.0] * size
    for ev in engine.tracer.canonical():
        if ev.rank < 0:
            continue
        if ev.op == "span":
            # span brackets are recorded at *exit* with t_start at entry,
            # so they only bound, rather than advance, the clock walk.
            assert ev.t_end >= ev.t_start
            continue
        assert ev.t_start >= last[ev.rank] - 1e-12, (
            f"rank {ev.rank} time ran backwards: {ev.t_start} < {last[ev.rank]}"
        )
        assert ev.t_end >= ev.t_start
        last[ev.rank] = ev.t_start
    for rank, clock in enumerate(result.clocks):
        assert clock >= last[rank] - 1e-12


@given(size=sizes, rounds=rounds, data=st.data())
@settings(max_examples=25, deadline=None)
def test_deterministic_under_shuffled_spawn_order(size, rounds, data):
    """Tasklet creation order must not leak into any observable output."""
    order = data.draw(st.permutations(range(size)))
    baseline_engine = SimEngine(size, trace=True)
    baseline = baseline_engine.run(_ring_program, rounds, 4)
    shuffled_engine = SimEngine(size, trace=True)
    shuffled_engine._spawn_order = order
    shuffled = shuffled_engine.run(_ring_program, rounds, 4)
    assert baseline.values == shuffled.values
    assert baseline.clocks == shuffled.clocks
    assert baseline_engine.tracer.canonical() == shuffled_engine.tracer.canonical()


@given(size=sizes, rounds=rounds)
@settings(max_examples=15, deadline=None)
def test_deterministic_under_repetition(size, rounds):
    """Same engine, same program, rerun: bit-identical results and trace."""
    runs, traces = [], []
    for _ in range(2):
        engine = SimEngine(size, trace=True)
        runs.append(engine.run(_ring_program, rounds, 4))
        traces.append(engine.tracer.canonical())
    assert runs[0].values == runs[1].values
    assert runs[0].clocks == runs[1].clocks
    assert traces[0] == traces[1]


@given(
    size=st.integers(min_value=2, max_value=6),
    stuck=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_deadlock_detection_fires(size, stuck):
    """Any rank left waiting on a never-sent message is diagnosed."""
    victim = stuck.draw(st.integers(0, size - 1))

    def prog(comm):
        if comm.rank == victim:
            comm.recv(source=(victim + 1) % comm.size, tag=12345)
        return comm.rank

    engine = SimEngine(size)
    with pytest.raises(RankFailedError) as exc_info:
        engine.run(prog)
    failures = exc_info.value.failures
    assert victim in failures
    assert isinstance(failures[victim], DeadlockError)


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("simmpi-ev-")]


def test_event_backend_leaves_only_parked_workers():
    engine = SimEngine(6)
    engine.run(_ring_program, 3, 4)
    assert len(_worker_threads()) == len(events._parked) <= events._MAX_PARKED
    assert all(worker.job is None for worker in events._parked.values())


def _host(comm):
    return threading.get_ident()


def test_rerun_puts_every_rank_back_on_its_thread(monkeypatch):
    size = min(16, events._MAX_PARKED)
    engine = SimEngine(size)
    first = engine.run(_host).values
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda thread: (started.append(thread), start(thread))
    )
    second = engine.run(_host).values
    assert started == []
    assert len(set(first)) == size and second == first


def test_parked_workers_stay_under_the_cap():
    cap = 8 * (os.cpu_count() or 1)  # glibc's default malloc-arena count
    for size in (64, 4):
        SimEngine(size).run(_ring_program, 1, 2)
        assert len(_worker_threads()) == len(events._parked) <= cap


def test_concurrent_runs_share_the_pool_safely():
    """Runs driven from several threads at once never share or lose a
    worker: each finishes, with the values a lone run returns."""
    expected = {size: SimEngine(size).run(_ring_program, 2, 3).values for size in (3, 5)}
    errors = []

    def runner(size):
        try:
            for _ in range(15):
                assert SimEngine(size).run(_ring_program, 2, 3).values == expected[size]
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=runner, args=(3 + 2 * (i % 2),)) for i in range(4)]
        for thread in runners:
            thread.start()
        for thread in runners:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in runners), "a run waited forever"
    assert errors == []


def test_finished_engine_is_freed_without_the_cycle_collector():
    """No reference cycle keeps a finished engine alive, nor does a parked worker."""
    engine = SimEngine(64)
    held = {}

    def program(comm):
        if comm.rank == 0:
            held["request"] = comm.irecv(1, tag=9)  # never matched
        comm.barrier()

    gc.collect()
    gc.disable()
    try:
        engine.run(program)
        # The mailbox left behind is empty and answers probes.
        assert held["request"].test() is False
        alive = weakref.ref(engine)
        del engine, held["request"]
        assert alive() is None
        assert all(worker.job is None for worker in events._parked.values())
        assert gc.collect() == 0
    finally:
        gc.enable()


def _spanned_program(comm, stuck):
    entered = (current_path(), current_guard())
    with span("step", comm=comm), payload_guard(make_guard("correct")):
        total = comm.allreduce(np.arange(4.0) + comm.rank)
        if stuck and comm.rank == 1:
            comm.recv(0, tag=99)  # never sent: rank 1 is the deadlock victim
    return entered, float(total.sum())


def test_failed_run_leaves_clean_workers_behind():
    """Thread-local span stacks and guard scopes are empty again when a
    worker parks, even after its rank raised inside both."""
    engine = SimEngine(4, trace=True)
    with pytest.raises(RankFailedError) as err:
        engine.run(_spanned_program, True)
    assert list(err.value.failures) == [1]
    assert isinstance(err.value.failures[1], DeadlockError)
    engine.tracer.clear()
    reused = engine.run(_spanned_program, False)
    fresh_engine = SimEngine(4, trace=True)
    fresh = fresh_engine.run(_spanned_program, False)
    assert reused.values == fresh.values == ((((), None), 48.0),) * 4
    assert reused.clocks == fresh.clocks
    assert engine.tracer.canonical() == fresh_engine.tracer.canonical()


_AFTER_FORK = """
import os
import numpy as np
from repro.experiments.common import default_setting
from repro.search import sweeps
from repro.simmpi import SimEngine

def program(comm):
    return float(comm.allreduce(np.arange(3.0) + comm.rank).sum())

def run4(_=None):
    return SimEngine(4).run(program).values

expected = run4()  # leaves parked workers in this process
pid = os.fork()
if pid == 0:
    os._exit(0 if run4() == expected else 3)
assert os.waitpid(pid, 0)[1] == 0, "the forked child's run failed"
s = default_setting()
points, _ = sweeps.strong_scaling_curve(s.network, 512, [8, 64], s.machine, s.compute, jobs=2)
assert len(points) == 2
assert sweeps._map_ordered(run4, [0, 1], 2) == [expected, expected]
assert run4() == expected
print("ok")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_runs_finish_after_fork():
    """After engine runs, a forked child, a sweep's process pool and the
    parent each finish a 4-rank run: none waits on a thread it lacks."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", _AFTER_FORK],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, errs = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a run after fork() waited on a worker thread that is gone")
    assert proc.returncode == 0, errs
    assert out.strip() == "ok"


def test_scheduler_switch_counter_advances():
    engine = SimEngine(4)
    engine.run(_ring_program, 2, 4)


def test_compat_names_are_inert():
    """``backend=`` and ``make_guard(single_thread=)`` are accepted and
    select nothing; an unknown backend name is still refused."""
    from repro.errors import ConfigurationError

    before = {t.ident for t in threading.enumerate()}
    compat = SimEngine(4, backend="thread", trace=True)
    plain = SimEngine(4, trace=True)
    assert compat.run(_ring_program, 2, 4) == plain.run(_ring_program, 2, 4)
    assert compat.tracer.canonical() == plain.tracer.canonical()
    started = [t for t in threading.enumerate() if t.ident not in before]
    assert not any(t.name.startswith("simmpi-rank-") for t in started)
    with pytest.raises(ConfigurationError):
        SimEngine(2, backend="fibers")

    guard = make_guard("correct", single_thread=True)
    flip = BitFlipFault(rank=0, target="payload", send_index=0, element=1, bit=52)

    def guarded(comm):
        with payload_guard(guard):
            return comm.sendrecv(np.arange(4.0), 1 - comm.rank)

    values = SimEngine(2, faults=FaultPlan(bitflips=(flip,))).run(guarded).values
    assert values[1].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert guard.monitor["detected"] == guard.monitor["recomputed"] == 1
