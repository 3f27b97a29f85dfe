"""Chrome ``trace_event`` JSON export of simulated runs.

Converts :class:`~repro.simmpi.tracing.TraceEvent` logs into the JSON
object format consumed by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``: one *process/thread track per rank*, spans as
complete ("X") events, point-to-point messages as complete events on the
same track, and zero-duration markers (collective entries, faults) as
instant ("i") events.  Virtual seconds become microseconds, the unit the
format requires.

The exporter is pure data-in/data-out; :func:`write_chrome_trace` adds
the file I/O and :func:`validate_chrome_trace` checks the invariants the
viewers rely on (used by the test suite and ``repro trace``).
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.spans import base_name, parse_label

__all__ = ["chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

_US = 1e6  # virtual seconds -> trace microseconds

# Events encoded per ``json.dumps`` call in :func:`write_chrome_trace`.
# Dumping straight to a file always runs the pure-Python ``iterencode``; the
# C encoder only serves ``dumps``, which holds its result — and, while
# encoding, a list of every fragment of it, several times larger — in
# memory.  Chunks get the C encoder's speed with both bounded; the chunk
# size does not show in the export time between 64 and 4096.
_CHUNK_EVENTS = 256


def _span_args(event: TraceEvent) -> Dict[str, Any]:
    args: Dict[str, Any] = {"path": "/".join(event.span)}
    if event.span:
        _, attrs = parse_label(event.span[-1])
        args.update(attrs)
    return args


def chrome_trace(events: Sequence[TraceEvent], *, title: str = "repro") -> Dict[str, Any]:
    """Build the Chrome trace object for ``events``.

    Tracks: ``pid`` and ``tid`` are both the world rank, so each rank
    renders as its own process row.  Span events are named by their
    innermost label's base name and nest naturally because the viewers
    infer nesting from containment of ``[ts, ts + dur]`` on one track.
    """
    out: List[Dict[str, Any]] = []
    ranks = sorted({e.rank for e in events})
    for rank in ranks:
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": rank,
                "tid": rank,
                "args": {"name": f"rank {rank} (virtual time)"},
            }
        )
    # Consecutive events of a rank share their span path object, so the
    # joined path is rebuilt only when the path changes.
    last_span: Any = None
    path = ""
    for e in events:
        rank = e.rank
        op = e.op
        ts = e.t_start * _US
        if op == "span":
            out.append(
                {
                    "pid": rank,
                    "tid": rank,
                    "ts": ts,
                    "name": base_name(e.span[-1]) if e.span else "span",
                    "cat": "span",
                    "ph": "X",
                    "dur": (e.t_end - e.t_start) * _US,
                    "args": _span_args(e),
                }
            )
        elif op == "send" or op == "recv":
            span = e.span
            if span is not last_span:
                last_span = span
                path = "/".join(span)
            out.append(
                {
                    "pid": rank,
                    "tid": rank,
                    "ts": ts,
                    "name": op,
                    "cat": "p2p",
                    "ph": "X",
                    "dur": (e.t_end - e.t_start) * _US,
                    "args": {
                        "peer": e.peer,
                        "nbytes": e.nbytes,
                        "data_bytes": e.data_bytes,
                        "tag": repr(e.tag),
                        "span": path,
                    },
                }
            )
        elif op.startswith(TraceEvent.FAULT_PREFIX):
            out.append(
                {
                    "pid": rank,
                    "tid": rank,
                    "ts": ts,
                    "name": op,
                    "cat": "fault",
                    "ph": "i",
                    "s": "p",
                    "args": {"peer": e.peer, "tag": repr(e.tag)},
                }
            )
        else:  # collective entry markers
            out.append(
                {
                    "pid": rank,
                    "tid": rank,
                    "ts": ts,
                    "name": op,
                    "cat": "collective",
                    "ph": "i",
                    "s": "t",
                    "args": {"nbytes": e.nbytes, "tag": repr(e.tag)},
                }
            )
    out.sort(key=lambda ev: (ev["pid"], ev.get("ts", -1.0)))
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"title": title, "clock": "virtual"},
    }


def write_chrome_trace(
    events: Sequence[TraceEvent], path: str, *, title: str = "repro"
) -> Dict[str, Any]:
    """Serialize :func:`chrome_trace` to ``path``; returns the object."""
    obj = chrome_trace(events, title=title)
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    events_out = obj["traceEvents"]
    rest = json.dumps({k: v for k, v in obj.items() if k != "traceEvents"})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"traceEvents": [')
        for start in range(0, len(events_out), _CHUNK_EVENTS):
            try:
                # chrome_trace() builds a tree, so the encoder's cycle
                # bookkeeping (two marker entries per event) is skipped.
                text = json.dumps(
                    events_out[start : start + _CHUNK_EVENTS],
                    allow_nan=False,
                    check_circular=False,
                )
            except ValueError as exc:
                validate_chrome_trace(obj)  # names an event with such a ts/dur
                raise ConfigurationError(
                    f"trace holds a non-finite number, which JSON cannot carry: {exc}"
                ) from exc
            if start:
                fh.write(", ")
            fh.write(text[1:-1])
        fh.write("], " + rest[1:])
    return obj


def _invalid(index: int, ev: Dict[str, Any], key: str, value: Any) -> str:
    return (
        f"event {index} ({ev['name']!r} on rank {ev['pid']}) "
        f"has invalid {key} {value!r}"
    )


def validate_chrome_trace(obj: Any) -> int:
    """Check trace-event invariants; returns the event count.

    Raises :class:`~repro.errors.ConfigurationError` on the first
    violation: missing required keys, unknown phase, negative or
    non-finite ``ts``/``dur``, or a track whose ``pid`` and ``tid``
    disagree (the exporter promises one process+thread per rank).
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ConfigurationError("trace object must be a dict with 'traceEvents'")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ConfigurationError("'traceEvents' must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ConfigurationError(f"event {i} missing required key {key!r}")
        ph = ev["ph"]
        if ph not in ("X", "i", "M", "B", "E"):
            raise ConfigurationError(f"event {i} has unsupported phase {ph!r}")
        if ev["pid"] != ev["tid"]:
            raise ConfigurationError(
                f"event {i}: pid {ev['pid']} != tid {ev['tid']} (one track per rank)"
            )
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0 or not math.isfinite(ts):
            raise ConfigurationError(_invalid(i, ev, "ts", ts))
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0 or not math.isfinite(dur):
                raise ConfigurationError(_invalid(i, ev, "dur", dur))
    return len(events)
