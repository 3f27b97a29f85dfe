"""Property tests for the discrete-event simmpi backend.

Hypothesis drives the scheduler through randomized communication
patterns and checks the invariants the backend's determinism contract
rests on: per-rank virtual time never runs backwards, deadlock
detection still fires on any unmatched receive, and results are
independent of both tasklet spawn order and repetition.  The lock
elision used in single-thread mode (``Tracer(threadsafe=False)``,
``SDCMonitor(single_thread=True)``) is regression-tested for identical
observable output.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, RankFailedError
from repro.simmpi.engine import SimEngine
from repro.simmpi.sdc import SDCMonitor
from repro.simmpi.tracing import NullLock, TraceEvent, Tracer


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
    engine = SimEngine(size, backend="event", trace=True)
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
    baseline_engine = SimEngine(size, backend="event", trace=True)
    baseline = baseline_engine.run(_ring_program, rounds, 4)
    shuffled_engine = SimEngine(size, backend="event", trace=True)
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
        engine = SimEngine(size, backend="event", trace=True)
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

    engine = SimEngine(size, backend="event", timeout=0.5)
    with pytest.raises(RankFailedError) as exc_info:
        engine.run(prog)
    failures = exc_info.value.failures
    assert victim in failures
    assert isinstance(failures[victim], DeadlockError)


def test_event_backend_leaves_no_threads_behind():
    before = threading.active_count()
    engine = SimEngine(6, backend="event")
    engine.run(_ring_program, 3, 4)
    assert threading.active_count() == before


def test_finished_engine_is_freed_without_the_cycle_collector():
    """No reference cycle keeps a finished engine (or its rank threads) alive."""
    engine = SimEngine(64, backend="event")
    held = {}

    def program(comm):
        if comm.rank == 0:
            held["request"] = comm.irecv(1, tag=9)  # never matched
            held["thread"] = weakref.ref(threading.current_thread())
        comm.barrier()

    gc.collect()
    gc.disable()
    try:
        engine.run(program)
        # The mailbox left behind is empty and answers probes.
        assert held["request"].test() is False
        alive = weakref.ref(engine)
        del engine, held["request"]
        assert alive() is None and held["thread"]() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scheduler_switch_counter_advances():
    engine = SimEngine(4, backend="event")
    engine.run(_ring_program, 2, 4)


def test_rejects_unknown_backend():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        SimEngine(2, backend="fibers")


# ---------------------------------------------------------------------------
# lock elision regression: identical observable output
# ---------------------------------------------------------------------------


def _sample_events(n=50):
    return [
        TraceEvent(rank=i % 3, op="send", peer=(i + 1) % 3, nbytes=8 * i,
                   t_start=float(i), t_end=float(i) + 0.5, tag=("t", i))
        for i in range(n)
    ]


def test_tracer_lock_elision_output_unchanged():
    locked = Tracer(enabled=True)
    lockfree = Tracer(enabled=True, threadsafe=False)
    assert isinstance(lockfree._lock, NullLock)
    for ev in _sample_events():
        locked.record(ev)
        lockfree.record(ev)
    assert locked.events == lockfree.events
    assert locked.canonical() == lockfree.canonical()
    assert locked.by_rank() == lockfree.by_rank()
    assert locked.dropped == lockfree.dropped == 0


def test_tracer_lock_elision_with_cap_and_sink():
    seen = []
    locked = Tracer(enabled=True, max_events=10)
    lockfree = Tracer(enabled=True, max_events=10, threadsafe=False,
                      sink=seen.append)
    events = _sample_events(25)
    for ev in events:
        locked.record(ev)
        lockfree.record(ev)
    assert locked.events == lockfree.events
    assert locked.dropped == lockfree.dropped == 15
    assert seen == events  # the sink sees everything, cap or not


def test_sdc_monitor_lock_elision_counts_unchanged():
    locked = SDCMonitor()
    lockfree = SDCMonitor(single_thread=True)
    assert isinstance(lockfree._lock, NullLock)
    for name, times in (("injected", 4), ("detected", 3), ("corrected", 2)):
        for _ in range(times):
            locked.inc(name)
            lockfree.inc(name)
    assert locked.snapshot() == lockfree.snapshot()


def test_traced_run_identical_with_and_without_locks():
    """End-to-end: an event-backend run (lock-free tracer) produces the
    same canonical trace as a threaded run (locked tracer)."""
    results, traces = {}, {}
    for backend in ("thread", "event"):
        engine = SimEngine(3, backend=backend, trace=True)
        results[backend] = engine.run(_ring_program, 2, 4)
        assert engine.tracer.threadsafe == (backend != "event")
        traces[backend] = engine.tracer.canonical()
    assert results["thread"].values == results["event"].values
    assert traces["thread"] == traces["event"]
