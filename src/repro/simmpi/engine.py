"""The SPMD execution engine of the simulated MPI runtime.

:class:`SimEngine` runs one rank program per world rank, hands each a
:class:`~repro.simmpi.communicator.Comm`, and tracks per-rank virtual
clocks under the postal network model.  The rank programs run as
tasklets of a discrete-event scheduler (:mod:`repro.simmpi.events`):
exactly one rank runs at a time over a virtual-time priority queue,
which is what makes the paper's P=512..16384 grids simulable (see
``docs/SIMMPI.md``).

By default rank failures abort the whole run (raising
:class:`~repro.errors.RankFailedError` with every original exception)
and unblock any ranks still waiting on messages.

With ``supervise=True`` and a :class:`~repro.simmpi.faults.FaultInjector`
attached, *injected* crashes (:class:`~repro.errors.SimulatedCrashError`)
are instead survivable ULFM-style: the crashed rank is marked dead,
surviving ranks observe :class:`~repro.errors.PeerFailedError` from any
pending or subsequent communication, and may call
:meth:`~repro.simmpi.communicator.Comm.shrink` to obtain a communicator
over the survivors and continue the run.
"""

from __future__ import annotations

import dataclasses
import operator
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.profile import hooks as _profile_hooks

from repro.errors import (
    ConfigurationError,
    DeadlockError,
    PeerFailedError,
    RankFailedError,
    SimulatedCrashError,
)
from repro.machine.params import MachineParams
from repro.simmpi.communicator import Comm
from repro.simmpi.events import EventCore, EventMailbox
from repro.simmpi.faults import FaultInjector, FaultPlan
from repro.simmpi.network import PostalNetwork
from repro.simmpi.tracing import TraceEvent, Tracer

__all__ = ["SimEngine", "SimResult", "resolve_engine"]


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Outcome of one SPMD run.

    Attributes
    ----------
    values:
        Per-rank return values of the rank program, in rank order
        (``None`` for ranks that died in a supervised run).
    clocks:
        Final virtual clock of each rank (seconds).
    failed:
        World ranks that crashed and were survived (supervised runs
        only; empty otherwise).
    time:
        Simulated makespan: ``max(clocks)``.
    """

    values: Tuple[Any, ...]
    clocks: Tuple[float, ...]
    failed: Tuple[int, ...] = ()

    @property
    def time(self) -> float:
        return max(self.clocks) if self.clocks else 0.0

    @property
    def survivors(self) -> Tuple[int, ...]:
        return tuple(r for r in range(len(self.values)) if r not in self.failed)

    def __getitem__(self, rank: int) -> Any:
        return self.values[rank]


class SimEngine:
    """Runs SPMD rank programs over a simulated network.

    Parameters
    ----------
    size:
        Number of world ranks.
    machine:
        Latency/bandwidth parameters (defaults to the paper's Cori-KNL).
    trace:
        Record every message as a :class:`~repro.simmpi.tracing.TraceEvent`
        (see :attr:`tracer`).
    faults:
        A :class:`~repro.simmpi.faults.FaultPlan` (or prebuilt
        :class:`~repro.simmpi.faults.FaultInjector`) to consult for
        injected faults.  ``None`` disables injection entirely.
    supervise:
        Survive injected rank crashes instead of aborting: dead ranks
        are reported in :attr:`SimResult.failed` and survivors may
        ``shrink`` and continue.
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`.
        When given, it is attached as the tracer's streaming sink so
        every event updates the registry's aggregates — even when event
        *storage* is off (``trace=False``).
    backend:
        Deprecated and inert.  Any name in :attr:`BACKENDS` is accepted
        and runs the one discrete-event scheduler; any other value is a
        :class:`~repro.errors.ConfigurationError`.
    """

    #: Deprecated names ``backend=`` still accepts ("thread" was the
    #: removed one-OS-thread-per-rank scheduler); both select nothing.
    BACKENDS = ("thread", "event")

    def __init__(
        self,
        size: int,
        machine: Optional[MachineParams] = None,
        *,
        trace: bool = False,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        supervise: bool = False,
        metrics: Optional[Any] = None,
        backend: str = "event",
    ) -> None:
        try:
            n = operator.index(size)  # NumPy integers too, never floats
        except TypeError:
            n = 0
        if n < 1 or isinstance(size, bool):
            raise ConfigurationError(f"engine size must be an integer >= 1, got {size!r}")
        size = n
        if backend not in self.BACKENDS:
            raise ConfigurationError(
                f"unknown engine backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.size = size
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.injector: Optional[FaultInjector] = faults
        self.network = PostalNetwork(machine, injector=self.injector)
        self.supervise = supervise
        # Outside a run the mailbox is empty: a pending request probes False.
        self.mailbox = EventMailbox(None)
        self.metrics = metrics
        sink = metrics.observe_event if metrics is not None else None
        self.tracer = Tracer(enabled=trace or sink is not None, sink=sink, store=trace)
        self._clocks = [0.0] * size
        self._aborted = False
        self._coord_store: Dict[Tuple, Dict[int, Any]] = {}
        self._coord_reads: Dict[Tuple, int] = {}
        self._dead: Set[int] = set()
        self._fail_gen = 0
        self._crash_failures: Dict[int, BaseException] = {}
        # Per-rank communicator generation state.  A rank's entry is only
        # ever written by its own tasklet.  ``_rank_gen[r]`` is the
        # generation r currently operates in; while r is inside
        # ``shrink`` its ``_rank_target[r]`` names the generation it is
        # moving to and ``_rank_recovering[r]`` is True.
        self._rank_gen = [0] * size
        self._rank_target = [0] * size
        self._rank_recovering = [False] * size
        # The per-run scheduler core (None outside runs), plus a test
        # hook permuting tasklet spawn order (results must be
        # independent of it).
        self._event_core: Optional[EventCore] = None
        self._spawn_order: Optional[Sequence[int]] = None
        # Host-side observability of the last run(): wall-clock seconds
        # (always measured — two perf_counter calls per run) and the
        # ProfileSession active during it, if any.  Consumed by the
        # RunRecord ``host`` block (repro.profile.host_block).
        self.last_host_wall_s: Optional[float] = None
        self.last_profile: Optional[Any] = None

    # -- clocks ------------------------------------------------------------

    def get_clock(self, world_rank: int) -> float:
        return self._clocks[world_rank]

    def advance_clock(self, world_rank: int, seconds: float) -> None:
        self._clocks[world_rank] += seconds

    def sync_clock(self, world_rank: int, at_least: float) -> None:
        if at_least > self._clocks[world_rank]:
            self._clocks[world_rank] = at_least

    # -- fault supervision ---------------------------------------------------

    def dead_ranks(self) -> Tuple[int, ...]:
        return tuple(sorted(self._dead))

    def peer_generation(self, rank: int) -> int:
        """The communicator generation ``rank`` has (or is moving to).

        While ``rank`` is inside :meth:`~repro.simmpi.communicator.Comm.shrink`
        this is its *target* generation: it has renounced every older
        generation and will never post another message there.
        """
        if self._rank_recovering[rank]:
            return self._rank_target[rank]
        return self._rank_gen[rank]

    def mark_recovering(self, rank: int, target_gen: int) -> None:
        """``rank`` declares it is abandoning generations below ``target_gen``."""
        self._rank_target[rank] = target_gen
        self._rank_recovering[rank] = True
        self._event_core.note_state_change()

    def mark_recovered(self, rank: int, new_gen: int) -> None:
        """``rank`` finished its shrink and now operates in ``new_gen``."""
        self._rank_gen[rank] = new_gen
        self._rank_recovering[rank] = False

    def interruption(
        self, world_rank: int, *, src: Optional[int] = None, gen: int = 0
    ) -> Optional[BaseException]:
        """The exception a blocked receive should raise now, if any.

        ``None`` in normal operation; a deadlock-style interrupt when
        another rank failed fatally.  In a supervised run a receive from
        ``src`` on a generation-``gen`` communicator fails with
        :class:`~repro.errors.PeerFailedError` exactly when ``src`` can
        provably never satisfy it: ``src`` is dead, or has moved (or is
        moving) to a newer generation.  Because that condition depends
        only on ``src``'s own deterministic execution, every rank's
        interruption point is a pure function of the program and the
        fault plan, which is what makes supervised runs replayable.
        """
        if self._aborted:
            return DeadlockError(
                f"rank {world_rank} interrupted: another rank failed"
            )
        if self.supervise and src is not None:
            if src in self._dead:
                return PeerFailedError(self.dead_ranks())
            if self.peer_generation(src) > gen:
                return PeerFailedError(self.dead_ranks())
        return None

    def check_interrupt(self, world_rank: int, *, step: Optional[int] = None) -> None:
        """Fire due injected crashes for ``world_rank``.

        Consults the injector for time-based crashes (against the rank's
        virtual clock) and step-based crashes when ``step`` is given.
        Only ever raises for *this* rank's own scripted faults, so calls
        are deterministic; peer failures surface through communication
        instead (see :meth:`interruption`).
        """
        if self.injector is not None:
            self.injector.check_crash(
                world_rank, step=step, time=self._clocks[world_rank]
            )
        if self._aborted:
            raise DeadlockError(
                f"rank {world_rank} interrupted: another rank failed"
            )

    def _register_crash(self, world_rank: int, exc: SimulatedCrashError) -> None:
        self._dead.add(world_rank)
        self._fail_gen += 1
        self._crash_failures[world_rank] = exc
        t = self._clocks[world_rank]
        self.tracer.record(TraceEvent(world_rank, "fault.crash", -1, 0, t, t))
        self._event_core.note_state_change()

    def begin_shrink(self) -> Tuple[int, Tuple[int, ...]]:
        """Snapshot (failure generation, survivor set) for a shrink attempt."""
        survivors = tuple(r for r in range(self.size) if r not in self._dead)
        return self._fail_gen, survivors

    # -- metadata coordination (Comm.split / Comm.shrink) --------------------

    def coordinate(
        self,
        ctx: Tuple,
        world_rank: int,
        value: Any,
        participants: Sequence[int],
        *,
        gen: int = 0,
    ) -> Dict[int, Any]:
        """All ``participants`` deposit a value and read everyone's.

        A tiny built-in allgather for communicator metadata (used by
        ``split`` and ``shrink``); charged zero virtual time.  Every
        participant gets the one shared ``{world rank: value}`` store,
        not a copy of it — P copies of P entries is what made ``split``
        quadratic — so readers leave the rank entries alone.  They may
        share a derived result on it under a non-rank key (``split``
        keeps its grouping under ``"groups"``).  The engine forgets the
        store once every participant has read it; the readers'
        references keep it alive until they are done.  A waiting
        participant suspends on the scheduler and is woken when the
        exchange completes, or with :meth:`_coord_failure`'s exception:
        in a supervised run, :class:`~repro.errors.PeerFailedError` if
        a participant dies or moves past generation ``gen`` (it will
        then never deposit here), the same deterministic peer-state
        rule as blocked receives.
        """
        core = self._event_core
        n = len(participants)
        store = self._coord_store.setdefault(ctx, {})
        store[world_rank] = value
        if len(store) >= n:
            core._complete_coord(ctx)
        while len(self._coord_store.get(ctx, ())) < n:
            exc = self._coord_failure(ctx, world_rank, participants, gen)
            if exc is not None:
                raise exc
            core._suspend_coord(core.tasks[world_rank], ctx, participants, gen)
        result = self._coord_store[ctx]
        reads = self._coord_reads.get(ctx, 0) + 1
        self._coord_reads[ctx] = reads
        if reads == n:
            del self._coord_store[ctx]
            del self._coord_reads[ctx]
        return result

    def _coord_failure(
        self, ctx: Tuple, world_rank: int, participants: Sequence[int], gen: int
    ) -> Optional[BaseException]:
        """The exception a waiting coordination should raise now, if any."""
        if self._aborted:
            return RankFailedError({world_rank: RuntimeError("aborted during split")})
        if self.supervise:
            present = self._coord_store.get(ctx, {})
            for p in participants:
                if p == world_rank or p in present:
                    continue
                if p in self._dead or self.peer_generation(p) > gen:
                    return PeerFailedError(self.dead_ranks() or (p,))
        return None

    # -- running -------------------------------------------------------------

    def world_comm(self, world_rank: int) -> Comm:
        return Comm(self, tuple(range(self.size)), world_rank, ctx=("world",))

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> SimResult:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank.

        Returns a :class:`SimResult`; raises
        :class:`~repro.errors.RankFailedError` if any rank raised (in a
        supervised run, injected crashes with at least one survivor are
        reported via :attr:`SimResult.failed` instead).  The engine is
        reusable: clocks, fault state and the injector reset at the
        start of each run (traces accumulate unless :attr:`tracer` is
        cleared), so a rerun replays the same fault plan identically.
        """
        self._clocks = [0.0] * self.size
        self._aborted = False
        self._dead = set()
        self._fail_gen = 0
        self._crash_failures = {}
        self._rank_gen = [0] * self.size
        self._rank_target = [0] * self.size
        self._rank_recovering = [False] * self.size
        # A fresh coordination store: nothing left in flight by an
        # interrupted run may leak into this one.
        self._coord_store = {}
        self._coord_reads = {}
        if self.injector is not None:
            self.injector.reset()
        profile_hooks = _profile_hooks.ACTIVE
        self.last_profile = (
            profile_hooks.session if profile_hooks is not None else None
        )
        if profile_hooks is not None:
            profile_hooks.note_run_start(self)
        t_host_start = perf_counter()
        core = self._event_core = EventCore(self)
        self.mailbox = core.mailbox
        try:
            results, failures = core.run(
                fn, args, kwargs, spawn_order=self._spawn_order
            )
            return self._finish(results, failures)
        finally:
            self._event_core = None
            # The core's mailbox points back at the core, and the core at
            # this engine: drop it rather than keep that cycle.  Messages
            # nobody received die with the run.
            core.mailbox = None
            self.mailbox = EventMailbox(None)
            self.last_host_wall_s = perf_counter() - t_host_start
            if profile_hooks is not None:
                profile_hooks.note_switches(core.switches)
                profile_hooks.note_run_end(self)

    def _finish(
        self, results: List[Any], failures: Dict[int, BaseException]
    ) -> SimResult:
        """Run epilogue: fold in crashes, build the result."""
        if failures:
            failures.update(self._crash_failures)
            raise RankFailedError(failures)
        if self._crash_failures and len(self._dead) == self.size:
            # Nobody survived to carry the run forward.
            raise RankFailedError(self._crash_failures)
        return SimResult(
            values=tuple(results),
            clocks=tuple(self._clocks),
            failed=tuple(sorted(self._dead)),
        )


def resolve_engine(
    engine: Optional[Union["SimEngine", str]],
    size: int,
    *,
    faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    supervise: bool = False,
) -> "SimEngine":
    """Coerce a trainer's ``engine`` argument to a ready :class:`SimEngine`.

    ``engine`` may be ``None`` (build a default engine) or a prebuilt
    :class:`SimEngine` (validated against ``size`` and returned as-is).
    A name from :attr:`SimEngine.BACKENDS` is deprecated and means the
    same as ``None``.  A prebuilt engine is the one carrier of a run's
    configuration: machine, tracing, metrics sink, faults and
    supervision.  ``faults``/``supervise`` serve the elastic trainer
    only; passing ``faults`` beside a prebuilt engine, or requiring
    ``supervise`` of an unsupervised one, is a
    :class:`~repro.errors.ConfigurationError` rather than a silently
    dropped argument.
    """
    if engine is None or isinstance(engine, str):
        return SimEngine(
            size, faults=faults, supervise=supervise, backend=engine or "event",
        )
    if engine.size != size:
        raise ConfigurationError(
            f"engine has {engine.size} ranks, grid needs {size}"
        )
    if faults is not None:
        raise ConfigurationError(
            "faults= conflicts with a prebuilt engine; configure "
            "SimEngine(faults=...) instead"
        )
    if supervise and not engine.supervise:
        raise ConfigurationError(
            "supervise=True needs a supervised engine; build it with "
            "SimEngine(supervise=True)"
        )
    return engine
