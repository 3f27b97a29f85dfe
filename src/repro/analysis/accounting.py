"""Per-rank virtual-time accounting for traced runs.

Decomposes each rank's virtual wall time into the three buckets the
paper's cost model reasons about:

* **comm** — time inside ``send`` events (the sender pays the latency
  ``alpha`` per message, derated links pay more);
* **wait** — time inside ``recv`` events, which under the postal model
  include both blocking on a message that has not arrived yet and the
  tail of its flight time; and
* **compute** — everything else up to the rank's final clock, i.e. the
  virtual time advanced by local work.

Within one rank the traced ``send``/``recv`` intervals are produced by
a single thread advancing a monotone clock, so they never overlap and
the decomposition is exact::

    compute + comm + wait == rank wall time

— the invariant the property tests assert for every traced trainer.
On top of the per-rank accounts the report derives the whole-grid
health figures: load imbalance (max/mean compute), the straggler rank,
and the idle fraction (wait time plus early-finisher tail relative to
``P x makespan``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError
from repro.report.tables import format_seconds
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.spans import base_name

__all__ = [
    "RankAccount",
    "AccountingReport",
    "rank_accounting",
    "span_accounting",
]


@dataclasses.dataclass(frozen=True)
class RankAccount:
    """One rank's virtual-time decomposition."""

    rank: int
    wall_s: float
    compute_s: float
    comm_s: float
    wait_s: float
    sends: int
    recvs: int

    @property
    def busy_fraction(self) -> float:
        """Share of wall time spent computing (1.0 for an idle-free rank)."""
        return self.compute_s / self.wall_s if self.wall_s > 0 else 1.0

    @property
    def wait_fraction(self) -> float:
        return self.wait_s / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "rank": self.rank,
            "wall_s": self.wall_s,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "wait_s": self.wait_s,
            "sends": self.sends,
            "recvs": self.recvs,
        }


@dataclasses.dataclass(frozen=True)
class AccountingReport:
    """Per-rank accounts plus the derived grid-level health figures."""

    accounts: Tuple[RankAccount, ...]
    makespan_s: float

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(a.rank for a in self.accounts)

    @property
    def straggler_rank(self) -> int:
        """The rank whose wall time bounds the step (ties: lowest rank)."""
        return max(self.accounts, key=lambda a: (a.wall_s, -a.rank)).rank

    @property
    def imbalance(self) -> float:
        """Max over mean compute time — 1.0 means perfectly balanced."""
        compute = [a.compute_s for a in self.accounts]
        mean = sum(compute) / len(compute)
        return max(compute) / mean if mean > 0 else 1.0

    @property
    def idle_fraction(self) -> float:
        """Idle share of the ``P x makespan`` virtual-time rectangle.

        Idle is receive-wait time plus the tail each early finisher
        spends waiting for the straggler (``makespan - wall``).
        """
        if self.makespan_s <= 0:
            return 0.0
        idle = sum(
            a.wait_s + (self.makespan_s - a.wall_s) for a in self.accounts
        )
        return idle / (len(self.accounts) * self.makespan_s)

    def account(self, rank: int) -> RankAccount:
        for a in self.accounts:
            if a.rank == rank:
                return a
        raise ConfigurationError(f"no account for rank {rank}")

    def to_table(self) -> ResultTable:
        table = ResultTable(
            "per-rank virtual-time accounting",
            columns=[
                "rank", "wall", "compute", "comm", "wait",
                "wait_frac", "sends", "recvs",
            ],
        )
        for a in self.accounts:
            table.add_row(
                rank=a.rank,
                wall=format_seconds(a.wall_s),
                compute=format_seconds(a.compute_s),
                comm=format_seconds(a.comm_s),
                wait=format_seconds(a.wait_s),
                wait_frac=round(a.wait_fraction, 4),
                sends=a.sends,
                recvs=a.recvs,
            )
        return table

    def group_table(self, pr: int, pc: int, *, axis: str = "row") -> ResultTable:
        """Aggregate accounts over grid rows or columns.

        Ranks map to coordinates as ``(row, col) = divmod(rank, pc)``,
        matching :class:`~repro.dist.grid.GridComm`; ``axis`` selects
        which coordinate to group by.
        """
        if axis not in ("row", "col"):
            raise ConfigurationError(f"axis must be 'row' or 'col', got {axis!r}")
        if pr < 1 or pc < 1:
            raise ConfigurationError(f"grid dims must be >= 1, got {pr}x{pc}")
        groups: Dict[int, List[RankAccount]] = {}
        for a in self.accounts:
            row, col = divmod(a.rank, pc)
            if row >= pr:
                raise ConfigurationError(
                    f"rank {a.rank} does not fit a {pr}x{pc} grid"
                )
            groups.setdefault(row if axis == "row" else col, []).append(a)
        table = ResultTable(
            f"virtual-time accounting by grid {axis} ({pr}x{pc} grid)",
            columns=[axis, "ranks", "wall", "compute", "comm", "wait"],
        )
        for coord in sorted(groups):
            members = groups[coord]
            table.add_row(
                **{axis: coord},
                ranks=len(members),
                wall=format_seconds(max(a.wall_s for a in members)),
                compute=format_seconds(sum(a.compute_s for a in members)),
                comm=format_seconds(sum(a.comm_s for a in members)),
                wait=format_seconds(sum(a.wait_s for a in members)),
            )
        return table


def rank_accounting(
    events: Sequence[TraceEvent],
    *,
    clocks: Optional[Sequence[float]] = None,
) -> AccountingReport:
    """Build the per-rank decomposition of a trace.

    ``clocks`` are the final per-rank virtual clocks of the run
    (:attr:`~repro.simmpi.engine.SimResult.clocks`); when given they
    define each rank's wall time — capturing trailing compute after the
    last message — and every rank appears even if it never communicated.
    Without them wall time falls back to the rank's last event end.
    """
    comm: Dict[int, float] = {}
    wait: Dict[int, float] = {}
    sends: Dict[int, int] = {}
    recvs: Dict[int, int] = {}
    last_end: Dict[int, float] = {}
    for e in events:
        if e.op == "send":
            comm[e.rank] = comm.get(e.rank, 0.0) + (e.t_end - e.t_start)
            sends[e.rank] = sends.get(e.rank, 0) + 1
        elif e.op == "recv":
            wait[e.rank] = wait.get(e.rank, 0.0) + (e.t_end - e.t_start)
            recvs[e.rank] = recvs.get(e.rank, 0) + 1
        else:
            continue
        if e.t_end > last_end.get(e.rank, 0.0):
            last_end[e.rank] = e.t_end
    if clocks is not None:
        ranks = range(len(clocks))
    else:
        ranks = sorted(set(comm) | set(wait))
    accounts = []
    for rank in ranks:
        wall = float(clocks[rank]) if clocks is not None else last_end.get(rank, 0.0)
        c, w = comm.get(rank, 0.0), wait.get(rank, 0.0)
        accounts.append(
            RankAccount(
                rank=rank,
                wall_s=wall,
                compute_s=wall - c - w,
                comm_s=c,
                wait_s=w,
                sends=sends.get(rank, 0),
                recvs=recvs.get(rank, 0),
            )
        )
    if not accounts:
        raise ConfigurationError(
            "cannot account an empty trace: no p2p events and no clocks"
        )
    makespan = max(a.wall_s for a in accounts)
    return AccountingReport(tuple(accounts), makespan)


def span_accounting(events: Sequence[TraceEvent]) -> ResultTable:
    """Compute/comm/wait decomposition per span name (innermost attribution).

    Span time comes from the ``"span"`` bracket events; ``send``/``recv``
    durations attribute to their innermost enclosing span, and compute
    is the bracket-time residual.  Nested spans attribute inclusively,
    like :func:`~repro.telemetry.summary.span_summary`.
    """
    time: Dict[str, float] = {}
    comm: Dict[str, float] = {}
    wait: Dict[str, float] = {}
    for e in events:
        if not e.span:
            continue
        name = base_name(e.span[-1])
        if e.op == "span":
            time[name] = time.get(name, 0.0) + (e.t_end - e.t_start)
        elif e.op == "send":
            comm[name] = comm.get(name, 0.0) + (e.t_end - e.t_start)
        elif e.op == "recv":
            wait[name] = wait.get(name, 0.0) + (e.t_end - e.t_start)
    table = ResultTable(
        "per-span compute/comm/wait decomposition",
        columns=["span", "virtual_time", "compute", "comm", "wait"],
    )
    for name in sorted(time, key=lambda n: -time[n]):
        total = time[name]
        c, w = comm.get(name, 0.0), wait.get(name, 0.0)
        table.add_row(
            span=name,
            virtual_time=format_seconds(total),
            compute=format_seconds(max(0.0, total - c - w)),
            comm=format_seconds(c),
            wait=format_seconds(w),
        )
    return table
