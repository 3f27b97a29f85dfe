"""The discrete-event scheduler behind :class:`~repro.simmpi.engine.SimEngine`.

Rank programs run as *tasklets* driven by a single-threaded
discrete-event scheduler over a virtual-time priority queue, with
exactly one tasklet runnable at any instant.  One OS thread per rank,
free-running and serialised by locks, cost ~20-50us per message and
capped simulated grids at tens of ranks; here the paper's P=512..16384
grids are routine.

Tasklets are parked OS threads, not generators or greenlets: each rank
still executes its unmodified, synchronous program (including
``threading.local`` state — telemetry span stacks, SDC guard scopes —
which identifies ranks by thread), but it only runs while the scheduler
has handed it the baton.  A blocking receive or split coordination does
not sleep on a condition variable; it registers the tasklet as a waiter
and switches directly to the next runnable tasklet (one lock handoff,
3-6us), so no rank ever polls.

The threads outlive the run.  A tasklet runs on a pooled *worker* that
parks on its own gate between runs; a run hands each rank to the worker
that hosted that rank last (spawning only the shortfall), so back-to-back
runs keep every rank on the same thread and the same per-thread
allocator state — fresh threads each run grew a CNN process by ~20 MiB
per run.  At most :data:`_MAX_PARKED` workers stay parked, and a forked
child starts with none.

Determinism contract
--------------------
The run queue is a heap of ``(virtual_time, seq, rank)`` entries where
``seq`` is a global monotone counter, so ties in virtual time resolve by
wake order and then never reach the rank field (``seq`` is unique).
Combined with the Kahn-network discipline of the mailbox — sends are
eager and deep-copied, receives FIFO-match per ``(ctx, src, dst, tag)``
key — every run of the same program and fault plan yields bit-identical
values, clocks, and canonical traces, independent of rank spawn order.
A deadlock is proven, not timed out: when no tasklet is runnable and no
interrupt predicate fires, the blocked tasklet with the smallest
``(virtual clock, rank)`` is chosen as the deterministic victim and
receives an exception naming what it waits on.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    SimulatedCrashError,
)
from repro.profile import hooks as _profile_hooks

__all__ = ["EventCore", "EventMailbox"]

_READY = 0
_RUNNING = 1
_BLOCKED = 2
_DONE = 3

#: C-stack size for tasklet threads.  Rank programs are ordinary Python
#: (heap-allocated frames in CPython); 512 KiB comfortably covers numpy
#: and pickle internals while letting P=1024+ tasklets coexist.
_STACK_BYTES = 512 * 1024

#: Most workers kept parked between runs: glibc's default malloc-arena
#: count on 64-bit Linux.  Past it threads share arenas anyway, and each
#: parked thread keeps its own allocator cache (~25 KiB).
_MAX_PARKED = 8 * (os.cpu_count() or 1)


class _Gate:
    """A parking spot for exactly one tasklet.

    A pre-acquired lock: ``wait()`` blocks until someone calls
    ``open()``.  The scheduler guarantees one-runnable-at-a-time, so a
    gate never has more than one waiter and never buffers more than one
    open.
    """

    __slots__ = ("wait", "open")

    def __init__(self) -> None:
        lock = threading.Lock()
        lock.acquire()
        self.wait = lock.acquire
        self.open = lock.release


class _Worker:
    """A pooled tasklet thread: hosts one rank per run, parks in between.

    Its gate doubles as the hosted task's gate, so handing a rank to a
    parked worker costs no wake-up: ``job`` is read when the run first
    schedules the rank, and dropped at once.
    """

    __slots__ = ("gate", "job", "rank")

    def __init__(self) -> None:
        self.gate = _Gate()
        self.job: Optional[Tuple["EventCore", "_Task"]] = None
        self.rank = -1


# Parked workers, keyed by the rank each hosted last.  Every take and
# return is one atomic dict call (pop, popitem, setdefault), so runs
# driven from several threads at once never share or lose a worker;
# they may overshoot the cap by a few.
_parked: Dict[int, _Worker] = {}
_names = itertools.count()

if hasattr(os, "register_at_fork"):
    # Threads do not survive fork(): a child's pool starts empty.
    os.register_at_fork(after_in_child=_parked.clear)


def _park(worker: _Worker) -> bool:
    """Return ``worker`` to the pool; ``False`` if it must retire instead."""
    return len(_parked) < _MAX_PARKED and _parked.setdefault(worker.rank, worker) is worker


def _worker_main(worker: _Worker) -> None:
    """A worker thread's life: wait parked, run the assigned rank, repeat."""
    while True:
        worker.gate.wait()  # until a run first schedules the assigned rank
        core, task = worker.job
        worker.job = None
        parked = False
        try:
            core._task_main(task)
            # Park before the final handoff: the run may end as soon as
            # the baton moves on, and the next one must find this worker.
            parked = _park(worker)
            if not parked:
                core._retired.append(threading.current_thread())
            gate = core._next_gate()
        except BaseException:
            # A scheduler invariant failed and this thread ends here: it
            # must not be handed another rank.
            if parked:
                _parked.pop(worker.rank, None)
            raise
        # Hold nothing of the run while handing the baton on: the run may
        # end, and its engine be freed, the moment the gate opens.
        del core, task
        gate.open()
        if not parked:
            return


def _spawn() -> _Worker:
    worker = _Worker()
    threading.Thread(
        target=_worker_main,
        args=(worker,),
        name=f"simmpi-ev-{next(_names)}",
        daemon=True,
    ).start()
    return worker


class _Task:
    """Scheduler state for one rank's tasklet."""

    __slots__ = (
        "rank",
        "gate",
        "status",
        "wake_value",
        "wake_exc",
        "wait_kind",
        "wait_key",
        "wait_interrupt",
        "wait_ctx",
        "wait_participants",
        "wait_gen",
        "block_clock",
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.gate: Optional[_Gate] = None  # the hosting worker's
        self.status = _READY
        self.wake_value: Any = None
        self.wake_exc: Optional[BaseException] = None
        self.wait_kind: Optional[str] = None  # "recv" | "coord"
        self.wait_key: Optional[Tuple] = None
        self.wait_interrupt: Optional[Callable[[], Optional[BaseException]]] = None
        self.wait_ctx: Optional[Tuple] = None
        self.wait_participants: Optional[Sequence[int]] = None
        self.wait_gen = 0
        self.block_clock = 0.0


class EventMailbox:
    """Matching buffers for in-flight messages, keyed by (ctx, src, dst, tag).

    Plain dicts, no locks: only one tasklet runs at a time.  A receive
    that finds no message suspends its tasklet on the scheduler until a
    matching ``post`` wakes it.  Outside a run the engine holds one
    without a core, which only answers ``peek``.
    """

    __slots__ = ("_core", "_queues")

    def __init__(self, core: Optional["EventCore"]) -> None:
        self._core = core
        self._queues: Dict[Tuple, deque] = {}

    def post(self, key: Tuple, payload: Any, arrival: float) -> None:
        core = self._core
        waiter = core._recv_waiters.pop(key, None)
        if waiter is not None:
            # Direct delivery: the unique blocked receiver for this key
            # wakes at max(its blocked clock, the arrival time).
            t = arrival if arrival > waiter.block_clock else waiter.block_clock
            core._wake(waiter, value=(payload, arrival), time=t)
            return
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
        q.append((payload, arrival))

    def peek(self, key: Tuple) -> bool:
        """Non-destructive match probe (used by ``Request.test``)."""
        return bool(self._queues.get(key))

    def take(self, key: Tuple, interrupt) -> Tuple[Any, float]:
        """The first message matching ``key``, waiting for it if need be.

        ``interrupt()`` returns ``None`` to keep waiting or the exception
        to raise instead (peer failure, run abort).
        """
        q = self._queues.get(key)
        if q:
            item = q.popleft()
            if not q:
                del self._queues[key]
            return item
        exc = interrupt()
        if exc is not None:
            raise exc
        return self._core._suspend_recv(key, interrupt)


class EventCore:
    """One discrete-event run: scheduler, run queue, and waiter tables.

    Built fresh by :meth:`SimEngine.run` for each run; the engine keeps
    the run's shared state (clocks, fault supervision, coordination
    stores), the core decides which tasklet runs when.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.size = engine.size
        self.mailbox = EventMailbox(self)
        self.tasks = [_Task(r) for r in range(self.size)]
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._current: Optional[_Task] = None
        self._recv_waiters: Dict[Tuple, _Task] = {}
        self._coord_waiters: Dict[Tuple, List[_Task]] = {}
        self._done = 0
        self._main_gate = _Gate()
        self._program: Optional[Tuple[Callable[..., Any], Tuple, Dict[str, Any]]] = None
        self._results: List[Any] = [None] * self.size
        self._failures: Dict[int, BaseException] = {}
        self._retired: List[threading.Thread] = []  # workers past the cap
        self.switches = 0  # context switches, for benchmarks/tests

    # -- run driver --------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        args: Tuple,
        kwargs: Dict[str, Any],
        spawn_order: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Any], Dict[int, BaseException]]:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank tasklet.

        ``spawn_order`` permutes the order in which ranks are assigned
        to workers (a determinism test hook); scheduling is driven
        purely by the seeded heap, so results must not depend on it.
        Every tasklet is guaranteed to terminate — blocked ones are
        eventually woken with an interrupt or deadlock exception.  The
        threads do outlive the run: up to :data:`_MAX_PARKED` of them
        park for the next one, holding no reference to this one, and
        the rest have ended by the time this returns.
        """
        # Seed the run queue: every rank ready at virtual time zero, in
        # rank order (seq = rank for the initial entries).
        for task in self.tasks:
            heappush(self._heap, (0.0, self._seq, task.rank))
            self._seq += 1
        self._program = (fn, args, kwargs)
        self._assign(range(self.size) if spawn_order is None else spawn_order)
        self._next_gate().open()  # hand the baton to the first tasklet
        self._main_gate.wait()  # until every tasklet is done
        for thread in self._retired:
            thread.join()
        return self._results, self._failures

    def _assign(self, order: Sequence[int]) -> None:
        """Hand every rank, in ``order``, to a worker.

        A rank first gets back the worker that hosted it last, then any
        other parked worker, and only then a new thread.
        """
        tasks = self.tasks
        unhosted = []
        for rank in order:
            worker = _parked.pop(rank, None)
            if worker is None:
                unhosted.append(rank)
            else:
                self._host(worker, tasks[rank])
        for i, rank in enumerate(unhosted):
            try:
                worker = _parked.popitem()[1]
            except KeyError:  # pool empty: spawn the shortfall
                spare = unhosted[i:]
                break
            self._host(worker, tasks[rank])
        else:
            return
        old_stack = threading.stack_size()
        try:
            try:
                threading.stack_size(_STACK_BYTES)
            except (ValueError, RuntimeError):  # pragma: no cover - platform
                pass
            for rank in spare:
                self._host(_spawn(), tasks[rank])
        finally:
            try:
                threading.stack_size(old_stack)
            except (ValueError, RuntimeError):  # pragma: no cover - platform
                pass

    def _host(self, worker: _Worker, task: _Task) -> None:
        worker.rank = task.rank
        worker.job = (self, task)
        task.gate = worker.gate

    def _task_main(self, task: _Task) -> None:
        """Run one rank's program, from its first scheduling to its end."""
        engine = self.engine
        fn, args, kwargs = self._program
        comm = engine.world_comm(task.rank)
        try:
            self._results[task.rank] = fn(comm, *args, **kwargs)
        except SimulatedCrashError as exc:
            if engine.supervise:
                engine._register_crash(task.rank, exc)
            else:
                self._failures[task.rank] = exc
                engine._aborted = True
                self.note_state_change()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._failures[task.rank] = exc
            engine._aborted = True
            self.note_state_change()
        task.status = _DONE
        self._done += 1

    # -- scheduling --------------------------------------------------------

    def _next_gate(self) -> _Gate:
        """Pass the baton to the next runnable tasklet, or end the run.

        Returns the gate the caller must open: the tasklet's, or the
        gate ``run`` waits on once every tasklet is done.
        """
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.dispatches += 1
        nxt = self._next_ready()
        if nxt is None:
            return self._main_gate
        self._current = nxt
        nxt.status = _RUNNING
        self.switches += 1
        return nxt.gate

    def _next_ready(self) -> Optional[_Task]:
        heap = self._heap
        tasks = self.tasks
        while True:
            while heap:
                entry = heappop(heap)
                task = tasks[entry[2]]
                if task.status == _READY:
                    return task
            if self._done == self.size:
                return None
            self._resolve_stall()

    def _suspend(self, task: _Task) -> Any:
        """Park the current tasklet; return (or raise) its wake payload."""
        nxt = self._next_ready()
        if nxt is task:
            # Stall resolution woke the suspending tasklet itself.
            task.status = _RUNNING
        else:
            # nxt is never None while ``task`` is blocked: stall
            # resolution always wakes at least one tasklet.
            self._current = nxt
            nxt.status = _RUNNING
            self.switches += 1
            nxt.gate.open()
            task.gate.wait()
        exc = task.wake_exc
        if exc is not None:
            task.wake_exc = None
            raise exc
        value = task.wake_value
        task.wake_value = None
        return value

    def _wake(
        self,
        task: _Task,
        value: Any = None,
        exc: Optional[BaseException] = None,
        time: float = 0.0,
    ) -> None:
        task.status = _READY
        task.wake_value = value
        task.wake_exc = exc
        task.wait_kind = None
        task.wait_interrupt = None
        heappush(self._heap, (time, self._seq, task.rank))
        self._seq += 1

    def _suspend_recv(self, key: Tuple, interrupt) -> Tuple[Any, float]:
        task = self._current
        task.status = _BLOCKED
        task.wait_kind = "recv"
        task.wait_key = key
        task.wait_interrupt = interrupt
        task.block_clock = self.engine._clocks[task.rank]
        self._recv_waiters[key] = task
        return self._suspend(task)

    # -- fault/abort integration -------------------------------------------

    def note_state_change(self) -> None:
        """Crash, recovery declaration, or abort: re-check all waiters.

        Every blocked receive re-evaluates its interruption predicate
        and every blocked coordination re-checks its failure conditions,
        waking exactly those whose exception is now due.  Runs
        synchronously in the current tasklet (no control transfer), so
        it is safe to call from any engine state mutation.
        """
        for key, task in list(self._recv_waiters.items()):
            exc = task.wait_interrupt()
            if exc is not None:
                del self._recv_waiters[key]
                self._wake(task, exc=exc, time=task.block_clock)
        for ctx, waiters in list(self._coord_waiters.items()):
            remaining = []
            for task in waiters:
                exc = self._coord_failure(task)
                if exc is not None:
                    self._wake(task, exc=exc, time=task.block_clock)
                else:
                    remaining.append(task)
            if remaining:
                self._coord_waiters[ctx] = remaining
            else:
                del self._coord_waiters[ctx]

    def _coord_failure(self, task: _Task) -> Optional[BaseException]:
        return self.engine._coord_failure(
            task.wait_ctx, task.rank, task.wait_participants, task.wait_gen
        )

    def _resolve_stall(self) -> None:
        """No runnable tasklet: fire due interrupts, else pick a victim.

        First every blocked tasklet's interrupt/failure predicate is
        re-evaluated (a crash may have been registered by the last
        tasklet to run without an intervening state-change note).  If
        nothing fires, the stall is a proven deadlock: the blocked
        tasklet with the smallest ``(virtual clock, rank)`` is woken
        with an exception naming what it waits on; its failure then
        aborts the run, which interrupts the remaining blocked tasklets
        on the next pass.
        """
        blocked = [t for t in self.tasks if t.status == _BLOCKED]
        if not blocked:  # pragma: no cover - scheduler invariant
            raise AssertionError("event scheduler stalled with no blocked tasks")
        woke = False
        for task in blocked:
            if task.wait_kind == "recv":
                exc = task.wait_interrupt()
                if exc is not None:
                    del self._recv_waiters[task.wait_key]
                    self._wake(task, exc=exc, time=task.block_clock)
                    woke = True
            else:
                exc = self._coord_failure(task)
                if exc is not None:
                    self._unregister_coord(task)
                    self._wake(task, exc=exc, time=task.block_clock)
                    woke = True
        if woke:
            return
        victim = min(blocked, key=lambda t: (t.block_clock, t.rank))
        if victim.wait_kind == "recv":
            del self._recv_waiters[victim.wait_key]
            exc = DeadlockError(
                f"deadlock: rank {victim.rank} waits to receive on "
                f"{victim.wait_key} and no rank can run to send it "
                "(likely an unmatched send/recv pair)"
            )
        else:
            self._unregister_coord(victim)
            ctx = victim.wait_ctx
            kind = "shrink" if ctx[0] == "shrink" else "split"
            store = self.engine._coord_store.get(ctx, {})
            missing = set(victim.wait_participants) - set(store)
            exc = ConfigurationError(
                f"deadlock: {kind} coordination on {ctx} cannot complete, "
                f"no rank can run; missing ranks {sorted(missing)}"
            )
        self._wake(victim, exc=exc, time=victim.block_clock)

    # -- metadata coordination ---------------------------------------------

    def _unregister_coord(self, task: _Task) -> None:
        waiters = self._coord_waiters.get(task.wait_ctx)
        if waiters is not None:
            try:
                waiters.remove(task)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not waiters:
                del self._coord_waiters[task.wait_ctx]

    def _complete_coord(self, ctx: Tuple) -> None:
        waiters = self._coord_waiters.pop(ctx, None)
        if waiters:
            for task in waiters:
                self._wake(task, time=task.block_clock)

    def _suspend_coord(
        self, task: _Task, ctx: Tuple, participants: Sequence[int], gen: int
    ) -> None:
        task.status = _BLOCKED
        task.wait_kind = "coord"
        task.wait_ctx = ctx
        task.wait_participants = participants
        task.wait_gen = gen
        task.block_clock = self.engine._clocks[task.rank]
        self._coord_waiters.setdefault(ctx, []).append(task)
        self._suspend(task)
