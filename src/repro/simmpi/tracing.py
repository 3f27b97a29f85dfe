"""Event tracing for the simulated MPI runtime.

When enabled on the engine, every point-to-point message and collective
entry is recorded as a :class:`TraceEvent`, giving tests and examples a
way to assert on *what was communicated* (message counts, volumes,
round structure of the Bruck/ring algorithms), not just on results.

Scalability: for long runs the in-memory event list can be bypassed
entirely by attaching a streaming ``sink`` callback — e.g. a
:class:`~repro.telemetry.metrics.MetricsRegistry` — which observes every
event even when storage is off.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.profile import hooks as _profile_hooks

__all__ = ["TraceEvent", "Tracer"]

# Lazily bound repro.telemetry.spans.current_path (import cycle guard);
# resolved once, on the first annotated record.
_current_path = None


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
    """Append-only event log (no-op when disabled).

    One tracer belongs to one engine, whose scheduler runs one rank at
    a time, so recording takes no lock.

    Parameters
    ----------
    enabled:
        Master switch; when ``False``, :meth:`record` returns
        immediately and :attr:`events` stays empty.
    sink:
        Optional callback invoked with every event as it is recorded —
        a streaming consumer that sees events whether or not they are
        stored.  Exceptions from the sink propagate to the recording rank.
    store:
        Set ``False`` to skip the in-memory list entirely and only feed
        the sink — constant-memory telemetry for arbitrarily long runs.
    """

    #: Always ``0``: the tracer stores every event it records.  Kept
    #: only because the benchmark harness (``bench/adapters.py``) reads it.
    dropped = 0

    def __init__(
        self,
        enabled: bool = False,
        *,
        sink: Optional[Callable[[TraceEvent], None]] = None,
        store: bool = True,
    ) -> None:
        self.enabled = enabled
        self.sink = sink
        self.store = store
        self._events: List[TraceEvent] = []

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
        if self.store:
            self._events.append(event)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def clear(self) -> None:
        self._events.clear()

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

        The append order of :attr:`events` interleaves ranks in
        scheduler order; within one rank the order is the program order
        and hence deterministic.  A stable sort by rank therefore
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
