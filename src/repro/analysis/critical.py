"""Cross-rank dependency DAG and critical-path extraction.

The simulator already *timed* every message; this module explains the
resulting makespan.  It rebuilds the cross-rank dependency DAG of a
trace — program-order edges between consecutive ``send``/``recv``
events of one rank, plus a matched edge from every ``send`` to the
``recv`` that consumed it — and runs a backward slack pass over it:

* an event's **slack** is how far its completion could slip without
  increasing the run's makespan;
* the **critical path** is the zero-slack chain from the start of the
  run to the clock that defines the makespan — the sequence of
  computations, sends and waits that bounds step time;
* every critical event is **attributed** to its telemetry span, layer
  and cost-model category (the Eq. 3/4/8 term it belongs to, via
  :data:`~repro.telemetry.audit.PHASE_CATEGORY`), so the path reads as
  "these collectives on that rank are why the step takes this long".

Matching mirrors the mailbox: sends and receives pair FIFO per
``(src, dst, tag)`` (injected drops are excluded — their messages never
arrived).  Program-order edges are *rigid* — the gap between two
consecutive events of one rank is local compute, which shifts with its
predecessor — while a send→recv edge absorbs slack whenever the message
arrived before the receiver asked for it.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError
from repro.report.tables import format_seconds
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.audit import PHASE_CATEGORY
from repro.telemetry.spans import base_name, parse_label

__all__ = [
    "DependencyGraph",
    "CriticalEvent",
    "CriticalPathReport",
    "build_dependency_graph",
    "critical_path",
    "attribute_event",
]

#: Float tolerance when deciding that a slack or gap is zero.
_EPS = 1e-12


def attribute_event(event: TraceEvent) -> Tuple[str, int, str]:
    """``(phase, layer, category)`` attribution of one event.

    The phase is the innermost enclosing trainer-phase span
    (``fwd``/``bwd_dx``/``bwd_dw``), the layer its ``layer`` attribute,
    and the category the Eq. 3/4/8 term of
    :data:`~repro.telemetry.audit.PHASE_CATEGORY`.  Events outside any
    known phase attribute to ``("other", -1, "other")``.
    """
    for label in reversed(event.span):
        name = base_name(label)
        if name in PHASE_CATEGORY:
            layer = parse_label(label)[1].get("layer", -1)
            return name, int(layer), PHASE_CATEGORY[name]
    if event.span:
        return base_name(event.span[-1]), -1, "other"
    return "other", -1, "other"


@dataclasses.dataclass(frozen=True)
class DependencyGraph:
    """The event-level dependency DAG of one trace.

    ``nodes`` are the p2p events in input order; ``program_edges`` and
    ``message_edges`` are ``(u, v)`` index pairs.  Message edges carry
    the virtual arrival time of the matched message in
    ``arrivals[(u, v)]`` (the earliest the receive could have ended).
    """

    nodes: Tuple[TraceEvent, ...]
    program_edges: Tuple[Tuple[int, int], ...]
    message_edges: Tuple[Tuple[int, int], ...]
    arrivals: Dict[Tuple[int, int], float]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.program_edges) + len(self.message_edges)


def build_dependency_graph(events: Sequence[TraceEvent]) -> DependencyGraph:
    """Extract the dependency DAG from a trace.

    Events must be in per-rank program order, which both
    :attr:`~repro.simmpi.tracing.Tracer.events` and
    :meth:`~repro.simmpi.tracing.Tracer.canonical` guarantee.  Sends
    whose payload was dropped by fault injection produce no message
    edge; unmatched sends (e.g. to a crashed rank) simply stay leaves.
    """
    nodes: List[TraceEvent] = []
    # Identity keys of sends whose message was injected-dropped.
    dropped = set()
    for e in events:
        op = e.op
        if op == "send" or op == "recv":
            nodes.append(e)
        elif op == "fault.drop":
            dropped.add((e.rank, e.peer, e.tag[0] if e.tag else None, e.t_start))
    program_edges: List[Tuple[int, int]] = []
    last_of_rank: Dict[int, int] = {}
    # FIFO queues of unmatched send indices per (src, dst, tag).
    pending: Dict[Tuple[int, int, object], deque] = {}
    message_edges: List[Tuple[int, int]] = []
    arrivals: Dict[Tuple[int, int], float] = {}
    for i, e in enumerate(nodes):
        rank = e.rank
        prev = last_of_rank.get(rank)
        if prev is not None:
            program_edges.append((prev, i))
        last_of_rank[rank] = i
        tag = e.tag[0] if e.tag else None
        if e.op == "send":
            if dropped and (rank, e.peer, tag, e.t_start) in dropped:
                continue
            key = (rank, e.peer, tag)
            queue = pending.get(key)
            if queue is None:
                queue = pending[key] = deque()
            queue.append(i)
        else:
            queue = pending.get((e.peer, rank, tag))
            if queue:
                u = queue.popleft()
                edge = (u, i)
                message_edges.append(edge)
                # The receive ended at max(posted time, arrival); if it
                # waited, its end *is* the arrival.
                t_end = e.t_end
                arrivals[edge] = (
                    t_end if t_end > e.t_start else min(t_end, nodes[u].t_end)
                )
    return DependencyGraph(
        tuple(nodes), tuple(program_edges), tuple(message_edges), arrivals
    )


@dataclasses.dataclass(frozen=True)
class CriticalEvent:
    """One hop of the critical path, with its attribution."""

    event: TraceEvent
    phase: str
    layer: int
    category: str

    @property
    def duration_s(self) -> float:
        return self.event.t_end - self.event.t_start


@dataclasses.dataclass(frozen=True)
class CriticalPathReport:
    """The longest dependency chain bounding a run's virtual makespan."""

    path: Tuple[CriticalEvent, ...]
    makespan_s: float
    slack: Tuple[float, ...]
    graph: DependencyGraph

    @property
    def length_s(self) -> float:
        """Virtual time covered by the chain (<= makespan by construction)."""
        if not self.path:
            return 0.0
        return self.path[-1].event.t_end - self.path[0].event.t_start

    @property
    def comm_s(self) -> float:
        """Time the critical path spends inside send/recv events."""
        return sum(c.duration_s for c in self.path)

    def by_category(self) -> Dict[str, float]:
        """Critical event time per cost-model category."""
        out: Dict[str, float] = {}
        for c in self.path:
            out[c.category] = out.get(c.category, 0.0) + c.duration_s
        return out

    def off_path_slack(self) -> List[Tuple[TraceEvent, float]]:
        """Non-critical events with their slack, largest first."""
        on_path = {id(c.event) for c in self.path}
        pairs = [
            (e, s)
            for e, s in zip(self.graph.nodes, self.slack)
            if id(e) not in on_path
        ]
        pairs.sort(key=lambda p: -p[1])
        return pairs

    @property
    def max_slack_s(self) -> float:
        return max(self.slack, default=0.0)

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest for :class:`~repro.analysis.record.RunRecord`."""
        return {
            "length_s": self.length_s,
            "makespan_s": self.makespan_s,
            "events": len(self.path),
            "comm_s": self.comm_s,
            "dag_nodes": self.graph.n_nodes,
            "dag_edges": self.graph.n_edges,
            "max_slack_s": self.max_slack_s,
            "by_category": {
                k: v for k, v in sorted(self.by_category().items())
            },
        }

    def to_table(self, *, limit: Optional[int] = None) -> ResultTable:
        title = (
            f"critical path: {len(self.path)} events, "
            f"{format_seconds(self.length_s)} of "
            f"{format_seconds(self.makespan_s)} makespan"
        )
        table = ResultTable(
            title,
            columns=[
                "hop", "rank", "op", "peer", "t_start", "duration",
                "phase", "layer", "category",
            ],
        )
        path = self.path if limit is None else self.path[:limit]
        for hop, c in enumerate(path):
            table.add_row(
                hop=hop,
                rank=c.event.rank,
                op=c.event.op,
                peer=c.event.peer,
                t_start=format_seconds(c.event.t_start),
                duration=format_seconds(c.duration_s),
                phase=c.phase,
                layer=c.layer,
                category=c.category,
            )
        return table


def critical_path(
    events: Sequence[TraceEvent],
    *,
    clocks: Optional[Sequence[float]] = None,
) -> CriticalPathReport:
    """Extract the critical path and per-event slack of a trace.

    ``clocks`` (the run's final per-rank virtual clocks) pin each
    rank's true wall time so trailing local compute after its last
    message counts against its slack; without them the last event of a
    rank is assumed to end its timeline.  Raises
    :class:`~repro.errors.ConfigurationError` on a trace with no p2p
    events.
    """
    graph = build_dependency_graph(events)
    nodes = graph.nodes
    if not nodes:
        raise ConfigurationError(
            "cannot extract a critical path: the trace has no p2p events"
        )
    n = len(nodes)
    # A node has at most one program successor and, if it is a matched
    # send, one receive, so the adjacency fits in arrays.  Program-order
    # edges are rigid (gap 0: delaying ``u`` delays the compute that
    # follows it and hence ``v``); a message edge's gap is
    # ``recv.t_end - arrival``, the time the message sat in the mailbox
    # before the receiver needed it.
    next_prog = [-1] * n
    next_msg = [-1] * n
    msg_gap = [0.0] * n
    for u, v in graph.program_edges:
        next_prog[u] = v
    arrivals = graph.arrivals
    for edge in graph.message_edges:
        u, v = edge
        next_msg[u] = v
        msg_gap[u] = max(0.0, nodes[v].t_end - arrivals[edge])
    # Backward slack pass.  build_dependency_graph only ever adds an
    # edge from an earlier node to a later one, so node order is already
    # a topological order.  A sink's slack is what is left after the
    # tail compute between the rank's last event and its final clock,
    # which is rigid: delaying the event delays the clock one-for-one.
    tail: Dict[int, float] = {}
    makespan = 0.0
    for i in range(n):
        if next_prog[i] < 0 and next_msg[i] < 0:
            e = nodes[i]
            wall = e.t_end
            if clocks is not None and e.rank < len(clocks):
                wall = max(wall, float(clocks[e.rank]))
            tail[i] = wall
            makespan = max(makespan, wall)
    if clocks is not None and len(clocks) > 0:
        makespan = max(makespan, max(float(c) for c in clocks))
    slack = [0.0] * n
    for u in range(n - 1, -1, -1):
        v = next_prog[u]
        w = next_msg[u]
        if w >= 0:
            slack[u] = slack[w] + msg_gap[u]
            if v >= 0 and slack[v] < slack[u]:
                slack[u] = slack[v]
        elif v >= 0:
            slack[u] = slack[v]
        else:
            slack[u] = makespan - tail[u]
    # Walk the zero-slack chain forward from its earliest member.
    start = min(
        (i for i in range(n) if slack[i] <= _EPS),
        key=lambda i: (nodes[i].t_start, nodes[i].t_end),
        default=None,
    )
    path_idx: List[int] = []
    cur = start
    while cur is not None:
        path_idx.append(cur)
        hops = sorted(
            hop
            for hop in ((next_prog[cur], 0.0), (next_msg[cur], msg_gap[cur]))
            if hop[0] >= 0
        )
        cur = next(
            (v for v, gap in hops if gap <= _EPS and slack[v] <= _EPS), None
        )
    path = tuple(
        CriticalEvent(nodes[i], *attribute_event(nodes[i])) for i in path_idx
    )
    return CriticalPathReport(
        path=path,
        makespan_s=makespan,
        slack=tuple(slack),
        graph=graph,
    )
