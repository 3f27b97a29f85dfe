"""Event tracing for the simulated MPI runtime.

When enabled on the engine, every point-to-point message and collective
entry is recorded as a :class:`TraceEvent`, giving tests and examples a
way to assert on *what was communicated* (message counts, volumes,
round structure of the Bruck/ring algorithms), not just on results.

Scalability: for long runs the in-memory event list can be bounded with
``Tracer(max_events=...)`` (oldest events are dropped and counted in
:attr:`Tracer.dropped`) or bypassed entirely by attaching a streaming
``sink`` callback — e.g. a :class:`~repro.telemetry.metrics.MetricsRegistry`
— which observes every event even when storage is capped or off.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.profile import hooks as _profile_hooks

__all__ = ["NullLock", "TraceEvent", "Tracer"]

# Lazily bound repro.telemetry.spans.current_path (import cycle guard);
# resolved once, on the first annotated record.
_current_path = None


class NullLock:
    """A context manager with lock shape and zero cost.

    Swapped in for real locks by the single-threaded event backend
    (:mod:`repro.simmpi.events`), where exactly one rank tasklet runs
    at a time and per-event locking is pure overhead.
    """

    __slots__ = ()

    def __enter__(self) -> "NullLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def acquire(self, *args: object, **kwargs: object) -> bool:
        return True

    def release(self) -> None:
        return None


class TraceEvent:
    """One communication event.

    ``op`` is ``"send"``/``"recv"`` for point-to-point traffic, the
    collective name (``"allreduce"``, ``"allgather"``, ...) for
    collective entry markers, or ``"span"`` for telemetry phase
    brackets; ``peer`` is the remote world rank for p2p events and
    ``-1`` otherwise.

    ``nbytes`` is the size *on the wire* (pickled objects are measured
    by their pickle); ``data_bytes`` is the raw numeric content of the
    payload (array elements only, no serialization overhead), which is
    what the paper's bandwidth terms count.  ``guard_bytes`` is the
    SDC-guard escort traffic riding on the message (the 8-byte payload
    digest of :mod:`repro.simmpi.sdc`) — zero on unguarded sends, so
    audits can account checksum traffic as its own explicit term.
    ``span`` is the telemetry span path active when the event was
    recorded — see :mod:`repro.telemetry.spans`.

    A slotted value class: one is built per message on the traced hot
    path, so construction is ten plain attribute stores.  Equality,
    hashing and ``repr`` follow every field in declaration order.
    """

    __slots__ = (
        "rank", "op", "peer", "nbytes", "t_start", "t_end",
        "tag", "data_bytes", "span", "guard_bytes",
    )

    #: Prefix shared by every fault-subsystem event (``fault.crash``,
    #: ``fault.transient``, ``fault.retry``, ``fault.backoff``,
    #: ``fault.drop``, ``fault.link``, ``fault.recovery``, plus the SDC
    #: family ``fault.bitflip``, ``fault.sdc_detected``,
    #: ``fault.sdc_corrected``, ``fault.sdc_recomputed``,
    #: ``fault.sdc_retransmit``, ``fault.sdc_escalated``).
    FAULT_PREFIX = "fault."

    def __init__(
        self,
        rank: int,
        op: str,
        peer: int,
        nbytes: int,
        t_start: float,
        t_end: float,
        tag: Tuple[object, ...] = (),
        data_bytes: int = 0,
        span: Tuple[str, ...] = (),
        guard_bytes: int = 0,
    ) -> None:
        self.rank = rank
        self.op = op
        self.peer = peer
        self.nbytes = nbytes
        self.t_start = t_start
        self.t_end = t_end
        self.tag = tag
        self.data_bytes = data_bytes
        self.span = span
        self.guard_bytes = guard_bytes

    def _fields(self) -> Tuple[object, ...]:
        return (
            self.rank, self.op, self.peer, self.nbytes, self.t_start,
            self.t_end, self.tag, self.data_bytes, self.span, self.guard_bytes,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{self.__class__.__qualname__}({inner})"

    @property
    def is_fault(self) -> bool:
        return self.op.startswith(self.FAULT_PREFIX)


class Tracer:
    """Thread-safe, append-only event log (no-op when disabled).

    Parameters
    ----------
    enabled:
        Master switch; when ``False``, :meth:`record` returns
        immediately and :attr:`events` stays empty.
    max_events:
        Optional cap on the stored event list.  When exceeded, the
        *oldest* events are dropped (ring-buffer semantics) and counted
        in :attr:`dropped`.  ``None`` (the default) keeps everything,
        matching the original unbounded behavior.
    sink:
        Optional callback invoked with every event as it is recorded —
        a streaming consumer that sees events regardless of the storage
        cap.  Exceptions from the sink propagate to the recording rank.
    store:
        Set ``False`` to skip the in-memory list entirely and only feed
        the sink — constant-memory telemetry for arbitrarily long runs.
    threadsafe:
        Set ``False`` to elide the per-record lock (single-thread mode,
        used by the event backend where only one rank tasklet runs at a
        time).  Recorded output is identical either way.
    """

    def __init__(
        self,
        enabled: bool = False,
        *,
        max_events: Optional[int] = None,
        sink: Optional[Callable[[TraceEvent], None]] = None,
        store: bool = True,
        threadsafe: bool = True,
    ) -> None:
        self.enabled = enabled
        self.max_events = max_events
        self.sink = sink
        self.store = store
        self.threadsafe = threadsafe
        self.dropped = 0
        self._events: "deque[TraceEvent] | List[TraceEvent]" = (
            deque(maxlen=max_events) if max_events is not None else []
        )
        self._lock = threading.Lock() if threadsafe else NullLock()

    def record(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        h = _profile_hooks.ACTIVE
        if h is not None:
            h.trace_records += 1
        if not event.span:
            global _current_path
            if _current_path is None:
                from repro.telemetry.spans import current_path

                _current_path = current_path
            path = _current_path()
            if path:
                # Annotate in place: the event was freshly constructed
                # by the caller and is not yet shared.
                event.span = path
        sink = self.sink
        if sink is not None:
            sink(event)
        if not self.store:
            return
        with self._lock:
            if (
                self.max_events is not None
                and len(self._events) == self.max_events
            ):
                self.dropped += 1
            self._events.append(event)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    # -- aggregate views used by tests ------------------------------------

    def messages(self, op: str = "send") -> Tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.op == op)

    def total_bytes(self, op: str = "send", rank: Optional[int] = None) -> int:
        return sum(
            e.nbytes
            for e in self.events
            if e.op == op and (rank is None or e.rank == rank)
        )

    def message_count(self, op: str = "send", rank: Optional[int] = None) -> int:
        return sum(
            1 for e in self.events if e.op == op and (rank is None or e.rank == rank)
        )

    def faults(self, kind: Optional[str] = None) -> Tuple[TraceEvent, ...]:
        """All fault events, optionally filtered (``kind="crash"`` etc.)."""
        events = tuple(e for e in self.events if e.is_fault)
        if kind is None:
            return events
        return tuple(e for e in events if e.op == TraceEvent.FAULT_PREFIX + kind)

    def canonical(self) -> Tuple[TraceEvent, ...]:
        """Events in a scheduling-independent order.

        The append order of :attr:`events` interleaves rank threads by
        wall-clock accident; within one rank the order is the program
        order and hence deterministic.  A stable sort by rank therefore
        yields a replay-comparable view: two runs of the same program
        under the same :class:`~repro.simmpi.faults.FaultPlan` produce
        identical ``canonical()`` tuples.
        """
        return tuple(sorted(self.events, key=lambda e: e.rank))

    def by_rank(self, op: str = "send") -> Dict[int, int]:
        """Bytes sent (or received) per rank."""
        out: Dict[int, int] = {}
        for e in self.events:
            if e.op == op:
                out[e.rank] = out.get(e.rank, 0) + e.nbytes
        return out
