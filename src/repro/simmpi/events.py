"""Discrete-event backend for the simulated MPI runtime.

The threaded backend of :class:`~repro.simmpi.engine.SimEngine` gives
every rank a free-running OS thread and serialises them with locks and
condition-variable polls; the scheduler cost (~20-50us per message on
one core) caps simulated grids at tens of ranks.  This module provides
the ``backend="event"`` alternative: rank programs become *tasklets*
driven by a single-threaded discrete-event scheduler over a virtual-time
priority queue, with exactly one tasklet runnable at any instant.

Tasklets are parked OS threads, not generators or greenlets: each rank
still executes its unmodified, synchronous program (including
``threading.local`` state — telemetry span stacks, SDC guard scopes —
which identifies ranks by thread), but it only runs while the scheduler
has handed it the baton.  A blocking receive or split coordination does
not sleep on a condition variable; it registers the tasklet as a waiter
and switches directly to the next runnable tasklet (~3us), so scheduling
cost is independent of the rank count.

Determinism contract
--------------------
The run queue is a heap of ``(virtual_time, seq, rank)`` entries where
``seq`` is a global monotone counter, so ties in virtual time resolve by
wake order and then never reach the rank field (``seq`` is unique).
Combined with the Kahn-network discipline of the mailbox — sends are
eager and deep-copied, receives FIFO-match per ``(ctx, src, dst, tag)``
key — every run of the same program and fault plan yields bit-identical
values, clocks, and canonical traces, independent of rank spawn order
and identical to the threaded backend (which is deterministic for the
same reason, just slower).  Deadlocks cannot wait on wall-clock
timeouts here; instead, when no tasklet is runnable and no interrupt
predicate fires, the blocked tasklet with the smallest
``(virtual clock, rank)`` is chosen as the deterministic victim and
receives the same timeout exception the threaded backend would raise.
"""

from __future__ import annotations

import threading
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    PeerFailedError,
    RankFailedError,
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
        "thread",
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.gate = _Gate()
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
        self.thread: Optional[threading.Thread] = None


class EventMailbox:
    """Single-threaded mailbox: plain dicts, waiters woken by the scheduler.

    Mirrors :class:`~repro.simmpi.communicator.Mailbox` semantics (same
    ``post``/``take``/``kick``/``peek`` surface, same queue-first /
    interrupt-second check order in ``take``) without any locks: only
    one tasklet runs at a time, so the structures are never contended.
    """

    __slots__ = ("_core", "_queues")

    def __init__(self, core: "EventCore") -> None:
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

    def kick(self) -> None:
        """Re-evaluate every blocked tasklet's interrupt predicate."""
        self._core.note_state_change()

    def peek(self, key: Tuple) -> bool:
        """Non-destructive match probe (used by ``Request.test``)."""
        return bool(self._queues.get(key))

    def take(self, key: Tuple, timeout: float, interrupt) -> Tuple[Any, float]:
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

    Built fresh by :meth:`SimEngine.run` for each ``backend="event"``
    execution; reads and writes the engine's shared state (clocks, fault
    supervision, coordination stores) exactly like the threaded workers
    do, so both backends share one semantic substrate.
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

        ``spawn_order`` permutes thread creation order (a determinism
        test hook); scheduling is driven purely by the seeded heap, so
        results must not depend on it.  Every tasklet is guaranteed to
        terminate — blocked ones are eventually woken with an interrupt
        or deadlock exception — so no threads outlive the run.
        """
        # Seed the run queue: every rank ready at virtual time zero, in
        # rank order (seq = rank for the initial entries).
        for task in self.tasks:
            heappush(self._heap, (0.0, self._seq, task.rank))
            self._seq += 1
        results: List[Any] = [None] * self.size
        failures: Dict[int, BaseException] = {}
        order = range(self.size) if spawn_order is None else spawn_order
        old_stack = threading.stack_size()
        try:
            try:
                threading.stack_size(_STACK_BYTES)
            except (ValueError, RuntimeError):  # pragma: no cover - platform
                pass
            for rank in order:
                task = self.tasks[rank]
                task.thread = threading.Thread(
                    target=self._task_main,
                    args=(task, fn, args, kwargs, results, failures),
                    name=f"simmpi-ev-{rank}",
                    daemon=True,
                )
                task.thread.start()
        finally:
            try:
                threading.stack_size(old_stack)
            except (ValueError, RuntimeError):  # pragma: no cover - platform
                pass
        self._dispatch()  # hand the baton to the first tasklet
        self._main_gate.wait()  # until every tasklet is done
        for task in self.tasks:
            task.thread.join()
        return results, failures

    def _task_main(
        self,
        task: _Task,
        fn: Callable[..., Any],
        args: Tuple,
        kwargs: Dict[str, Any],
        results: List[Any],
        failures: Dict[int, BaseException],
    ) -> None:
        engine = self.engine
        task.gate.wait()  # scheduled for the first time
        comm = engine.world_comm(task.rank)
        try:
            results[task.rank] = fn(comm, *args, **kwargs)
        except SimulatedCrashError as exc:
            if engine.supervise:
                engine._register_crash(task.rank, exc)
            else:
                failures[task.rank] = exc
                engine._abort.set()
                self.note_state_change()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures[task.rank] = exc
            engine._abort.set()
            self.note_state_change()
        finally:
            task.status = _DONE
            self._done += 1
            self._dispatch()

    # -- scheduling --------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand the baton to the next runnable tasklet (or end the run)."""
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.dispatches += 1
        nxt = self._next_ready()
        if nxt is None:
            self._main_gate.open()
            return
        self._current = nxt
        nxt.status = _RUNNING
        self.switches += 1
        nxt.gate.open()

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

        The event-backend analogue of ``Mailbox.kick`` plus the
        coordination condition broadcast: every blocked receive
        re-evaluates its interruption predicate and every blocked
        coordination re-checks its failure conditions, waking exactly
        those whose exception is now due.  Runs synchronously in the
        current tasklet (no control transfer), so it is safe to call
        from any engine state mutation.
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
        """The exception a blocked coordination should raise now, if any.

        Mirrors the in-loop checks of the threaded
        :meth:`SimEngine.coordinate` exactly (same conditions, same
        exception values).
        """
        engine = self.engine
        if engine._abort.is_set():
            return RankFailedError({task.rank: RuntimeError("aborted during split")})
        if engine.supervise:
            present = engine._coord_store.get(task.wait_ctx, {})
            for p in task.wait_participants:
                if p == task.rank or p in present:
                    continue
                if p in engine._dead or engine.peer_generation(p) > task.wait_gen:
                    return PeerFailedError(engine.dead_ranks() or (p,))
        return None

    def _resolve_stall(self) -> None:
        """No runnable tasklet: fire due interrupts, else pick a victim.

        Replaces the threaded backend's wall-clock timeouts.  First
        every blocked tasklet's interrupt/failure predicate is
        re-evaluated (a crash may have been registered by the last
        tasklet to run without an intervening state-change note).  If
        nothing fires, the stall is a genuine deadlock: the blocked
        tasklet with the smallest ``(virtual clock, rank)`` receives the
        same timeout exception its threaded counterpart would raise; its
        failure then aborts the run, which interrupts the remaining
        blocked tasklets on the next pass.
        """
        engine = self.engine
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
                f"receive on {victim.wait_key} timed out after "
                f"{engine.timeout:.1f}s (likely an unmatched send/recv pair)"
            )
        else:
            self._unregister_coord(victim)
            store = engine._coord_store.get(victim.wait_ctx, {})
            missing = set(victim.wait_participants) - set(store)
            exc = ConfigurationError(
                f"split coordination on {victim.wait_ctx} timed out; "
                f"missing ranks {sorted(missing)}"
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

    def coordinate(
        self,
        ctx: Tuple,
        world_rank: int,
        value: Any,
        participants: Sequence[int],
        gen: int = 0,
    ) -> Dict[int, Any]:
        """Event-backend :meth:`SimEngine.coordinate`.

        Same deposit/read/garbage-collection protocol, shared (not
        copied) result store and failure conditions as the threaded
        version, but waiters suspend on the scheduler and are woken only
        when the exchange completes or a relevant state change lands —
        O(participants) tasklet switches per exchange instead of a herd
        wakeup per deposit.
        """
        engine = self.engine
        task = self.tasks[world_rank]
        n = len(participants)
        store = engine._coord_store.setdefault(ctx, {})
        store[world_rank] = value
        if len(store) >= n:
            self._complete_coord(ctx)
        while len(engine._coord_store.get(ctx, ())) < n:
            if engine._abort.is_set():
                raise RankFailedError({world_rank: RuntimeError("aborted during split")})
            if engine.supervise:
                present = engine._coord_store.get(ctx, {})
                for p in participants:
                    if p == world_rank or p in present:
                        continue
                    if p in engine._dead or engine.peer_generation(p) > gen:
                        raise PeerFailedError(engine.dead_ranks() or (p,))
            self._suspend_coord(task, ctx, participants, gen)
        result = engine._coord_store[ctx]
        reads = engine._coord_reads.get(ctx, 0) + 1
        engine._coord_reads[ctx] = reads
        if reads == n:
            del engine._coord_store[ctx]
            del engine._coord_reads[ctx]
        return result

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
