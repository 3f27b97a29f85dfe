"""Per-rank / per-span text summaries of traced runs.

Aggregates the ``"span"`` events of a trace into a
:class:`~repro.core.results.ResultTable`: virtual seconds, entry counts
and the communication (messages / wire bytes) attributed to each span
name, either totalled or broken out per rank.  This is the quick
terminal view; the Chrome export is the zoomable one.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.results import ResultTable
from repro.report.tables import format_seconds
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.spans import base_name

__all__ = ["span_summary", "span_totals", "dropped_warning"]


def dropped_warning(dropped: int) -> str:
    """The standard lower-bound warning for traces with dropped events."""
    return (
        f"WARNING: {dropped} events dropped from the trace ring buffer; "
        "totals are lower bounds"
    )


def span_totals(
    events: Sequence[TraceEvent], *, per_rank: bool = False
) -> List[Dict[str, object]]:
    """Raw per-span aggregates as JSON-safe rows (seconds unformatted).

    One row per span name (or per ``(span, rank)`` with ``per_rank``)
    with keys ``span``, ``count``, ``virtual_time_s``, ``sends`` and
    ``bytes`` — the machine-readable side of :func:`span_summary`, used
    by :mod:`repro.analysis.record`.
    """
    # key: (span name, rank or -1)
    time: Dict[Tuple[str, int], float] = {}
    count: Dict[Tuple[str, int], int] = {}
    msgs: Dict[Tuple[str, int], int] = {}
    nbytes: Dict[Tuple[str, int], int] = {}
    names: Dict[str, str] = {}  # innermost label -> its base name
    for e in events:
        if not e.span:
            continue
        label = e.span[-1]
        name = names.get(label)
        if name is None:
            name = names[label] = base_name(label)
        key = (name, e.rank if per_rank else -1)
        if e.op == "span":
            time[key] = time.get(key, 0.0) + (e.t_end - e.t_start)
            count[key] = count.get(key, 0) + 1
        elif e.op == "send":
            msgs[key] = msgs.get(key, 0) + 1
            nbytes[key] = nbytes.get(key, 0) + e.nbytes
    keys = sorted(set(time) | set(msgs), key=lambda k: (-time.get(k, 0.0), k[0], k[1]))
    rows: List[Dict[str, object]] = []
    for key in keys:
        row: Dict[str, object] = {
            "span": key[0],
            "count": count.get(key, 0),
            "virtual_time_s": time.get(key, 0.0),
            "sends": msgs.get(key, 0),
            "bytes": nbytes.get(key, 0),
        }
        if per_rank:
            row["rank"] = key[1]
        rows.append(row)
    return rows


def span_summary(
    events: Sequence[TraceEvent], *, per_rank: bool = False, dropped: int = 0
) -> ResultTable:
    """Summarize spans: count, virtual time, messages and bytes sent.

    Span *time* comes from the ``"span"`` bracket events (innermost
    attribution: a nested span's interval is also inside its parent, so
    parent rows include child time just as a profiler's inclusive view
    does).  Message/byte columns attribute each ``send`` to its
    innermost enclosing span.

    ``dropped`` is the tracer's dropped-event count; a non-zero value
    stamps the table title with a visible lower-bound warning so capped
    ring-buffer traces are never mistaken for complete ones.
    """
    columns = ["span", "count", "virtual_time", "sends", "bytes"]
    if per_rank:
        columns.insert(1, "rank")
    title = "per-span summary"
    if dropped:
        title += f"  [{dropped_warning(dropped)}]"
    table = ResultTable(title, columns=columns)
    for raw in span_totals(events, per_rank=per_rank):
        row = dict(raw)
        row["virtual_time"] = format_seconds(row.pop("virtual_time_s"))
        table.add_row(**row)
    return table
