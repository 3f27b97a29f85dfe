"""Health rules over per-rank heartbeats in virtual time, judged from a trace.

The monitor consumes raw :class:`~repro.simmpi.tracing.TraceEvent`\\ s —
heartbeats (``op == "hb"``, emitted once per step by every trainer),
point-to-point receives, fault markers and checkpoint markers — and
raises typed :class:`HealthEvent`\\ s when a rule trips:

``stall``
    a live rank's heartbeat step lags the leader by
    ``stall_steps`` or more (also swept at :meth:`HealthMonitor.finish`
    for ranks that went quiet before the end of the run);
``straggler``
    a rank's per-step virtual duration exceeds
    ``straggler_factor`` x the median across ranks for that step;
``loss_nan``
    a heartbeat carries a NaN/infinite global loss;
``loss_divergence``
    the loss exceeds ``divergence_factor`` x the best
    finite loss seen after warmup;
``comm_wait_spike``
    a rank spent more than ``comm_wait_max`` of a step's virtual time
    blocked in receives;
``ckpt_degraded``
    the elastic trainer declared a degraded restore (``ckpt.degraded``
    marker).

The rules run after the run, on the recorded trace, and see one event
at a time through :meth:`HealthMonitor.observe_event`.
:func:`evaluate_health` feeds them in virtual-time order: the same
report for a given trace whatever the scheduler did, and what RunRecords
embed.  ``repro watch`` also replays the trace in append (scheduler)
order to print its stream of alerts (:mod:`repro.observe.watch`).
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError
from repro.telemetry.heartbeat import HB_OP

__all__ = [
    "HEALTH_KINDS",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "HealthReport",
    "evaluate_health",
    "virtual_order",
]

#: Every kind a monitor can raise, with its fixed severity.
HEALTH_KINDS: Dict[str, str] = {
    "stall": "crit",
    "straggler": "warn",
    "loss_nan": "crit",
    "loss_divergence": "warn",
    "comm_wait_spike": "warn",
    "ckpt_degraded": "crit",
}


@dataclasses.dataclass(frozen=True)
class HealthEvent:
    """One rule firing: what went wrong, where, and when (virtual time)."""

    kind: str
    rank: int
    t_s: float
    severity: str
    detail: str
    step: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "rank": self.rank,
            "t_s": self.t_s,
            "severity": self.severity,
            "detail": self.detail,
        }
        if self.step is not None:
            out["step"] = self.step
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HealthEvent":
        return cls(
            kind=payload["kind"],
            rank=payload["rank"],
            t_s=payload["t_s"],
            severity=payload["severity"],
            detail=payload["detail"],
            step=payload.get("step"),
        )


@dataclasses.dataclass(frozen=True)
class HealthConfig:
    """Rule thresholds (defaults tuned to the repo's demo fault plans)."""

    #: Steps a rank may lag the leader before it counts as stalled.
    stall_steps: int = 2
    #: Per-step duration ratio over the cross-rank median that flags a
    #: straggler (the ``repro faults`` demo straggler derates by 1.3x).
    straggler_factor: float = 1.25
    #: Absolute per-step duration below which stragglers are ignored.
    straggler_floor_s: float = 0.0
    #: Loss ratio over the post-warmup best that flags divergence.
    divergence_factor: float = 2.0
    #: Steps exempt from the loss and straggler rules while training
    #: settles.
    warmup_steps: int = 2
    #: Maximum fraction of a step's virtual time spent blocked in
    #: receives before a comm-wait spike is raised.
    comm_wait_max: float = 0.9

    def validate(self) -> None:
        if self.stall_steps < 1:
            raise ConfigurationError("stall_steps must be >= 1")
        if self.straggler_factor <= 1.0:
            raise ConfigurationError("straggler_factor must exceed 1.0")
        if self.divergence_factor <= 1.0:
            raise ConfigurationError("divergence_factor must exceed 1.0")
        if not 0.0 < self.comm_wait_max <= 1.0:
            raise ConfigurationError("comm_wait_max must be in (0, 1]")
        if self.warmup_steps < 0:
            raise ConfigurationError("warmup_steps must be >= 0")


class _RankState:
    __slots__ = ("last_step", "last_t", "recv_s")

    def __init__(self) -> None:
        self.last_step: Optional[int] = None
        self.last_t = 0.0
        self.recv_s = 0.0


class HealthMonitor:
    """The rule state machine over one stream of trace events.

    Feed it events with :meth:`observe_event`, then call :meth:`finish`
    once for the end-of-run sweep.  :attr:`events` lists every
    :class:`HealthEvent` raised so far, in the order raised.
    """

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config or HealthConfig()
        self.config.validate()
        self.events: List[HealthEvent] = []
        self._raised: set = set()
        self._ranks: Dict[int, _RankState] = {}
        self._durations: Dict[int, Dict[int, float]] = {}
        self._judged_steps: set = set()
        self._best_loss: Optional[float] = None
        self._epoch = 0

    def observe_event(self, event: Any) -> None:
        op = event.op
        if op == HB_OP:
            self._on_heartbeat(event)
        elif op == "recv":
            state = self._ranks.get(event.rank)
            if state is not None:
                state.recv_s += event.t_end - event.t_start
        elif op == "fault.crash":
            # The elastic trainer shrinks and renumbers the world
            # after a crash, so per-rank progress identities from
            # before it are meaningless: start a fresh epoch.
            self._ranks.clear()
            self._durations.clear()
            self._judged_steps.clear()
            self._epoch += 1
        elif op == "ckpt.degraded":
            self._raise(
                "ckpt_degraded",
                event.rank,
                event.t_end,
                "restore degraded to an older checkpoint",
            )

    def finish(self) -> "HealthReport":
        """End-of-run sweep: ranks that went quiet count as stalled."""
        for done in sorted(self._durations):
            if (self._epoch, done) not in self._judged_steps:
                self._judged_steps.add((self._epoch, done))
                self._judge_straggler(done)
        steps = {
            r: st.last_step
            for r, st in self._ranks.items()
            if st.last_step is not None
        }
        if steps:
            leader = max(steps.values())
            for rank in sorted(steps):
                lag = leader - steps[rank]
                if lag >= self.config.stall_steps:
                    self._raise(
                        "stall",
                        rank,
                        self._ranks[rank].last_t,
                        f"ended {lag} steps behind the leader",
                        step=steps[rank],
                    )
        return HealthReport(self.events)

    # -- rules --------------------------------------------------------------

    def _raise(
        self,
        kind: str,
        rank: int,
        t_s: float,
        detail: str,
        step: Optional[int] = None,
    ) -> None:
        key = (kind, rank, self._epoch)
        if key in self._raised:
            return
        self._raised.add(key)
        self.events.append(
            HealthEvent(
                kind=kind,
                rank=rank,
                t_s=t_s,
                severity=HEALTH_KINDS[kind],
                detail=detail,
                step=step,
            )
        )

    def _on_heartbeat(self, event: Any) -> None:
        cfg = self.config
        fields = dict(event.tag)
        step = fields.get("step")
        if step is None:
            return
        rank = event.rank
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = _RankState()
        else:
            duration = event.t_end - state.last_t
            # First heartbeat of a step wins: trainers that emit a
            # compute-phase heartbeat before the step's first collective
            # (see the elastic loop) make the straggler rule judge
            # *local* compute; the end-of-step heartbeat would measure
            # the sync-bound remainder, identical across ranks.
            self._durations.setdefault(step, {}).setdefault(
                rank, (duration, event.t_end)
            )
            if duration > 0 and step >= cfg.warmup_steps:
                frac = state.recv_s / duration
                if frac > cfg.comm_wait_max:
                    self._raise(
                        "comm_wait_spike",
                        rank,
                        event.t_end,
                        f"{frac:.0%} of step {step} spent in recv wait",
                        step=step,
                    )
        state.last_step = step
        state.last_t = event.t_end
        state.recv_s = 0.0

        # Stall: this rank just reported; anyone far behind it?
        for other, other_state in self._ranks.items():
            if other_state.last_step is None:
                continue
            lag = step - other_state.last_step
            if lag >= cfg.stall_steps:
                self._raise(
                    "stall",
                    other,
                    event.t_end,
                    f"{lag} steps behind rank {rank}",
                    step=other_state.last_step,
                )

        # Straggler: judge step k once a later step starts reporting.
        for done in [s for s in self._durations if s < step]:
            if (self._epoch, done) not in self._judged_steps:
                self._judged_steps.add((self._epoch, done))
                self._judge_straggler(done)

        loss = fields.get("loss")
        if loss is not None:
            loss = float(loss)
            if not math.isfinite(loss):
                self._raise(
                    "loss_nan",
                    rank,
                    event.t_end,
                    f"loss became {loss} at step {step}",
                    step=step,
                )
            elif step >= cfg.warmup_steps:
                if self._best_loss is not None and loss > (
                    cfg.divergence_factor * self._best_loss
                ):
                    self._raise(
                        "loss_divergence",
                        rank,
                        event.t_end,
                        f"loss {loss:.4g} is {loss / self._best_loss:.2f}x "
                        f"the best seen ({self._best_loss:.4g})",
                        step=step,
                    )
                if self._best_loss is None or loss < self._best_loss:
                    self._best_loss = loss

    def _judge_straggler(self, step: int) -> None:
        cfg = self.config
        if step < cfg.warmup_steps:
            return
        durations = self._durations.pop(step)
        if len(durations) < 2:
            return
        med = statistics.median(d for d, _ in durations.values())
        if med <= 0:
            return
        for rank in sorted(durations):
            dur, t_end = durations[rank]
            if dur > cfg.straggler_factor * med and dur > cfg.straggler_floor_s:
                self._raise(
                    "straggler",
                    rank,
                    t_end,
                    f"step {step} took {dur / med:.2f}x the median "
                    f"({dur:.3g}s vs {med:.3g}s)",
                    step=step,
                )


def virtual_order(events: Iterable[Any]) -> List[Any]:
    """Events sorted by virtual time — the deterministic replay order.

    The key ``(t_end, t_start, rank)`` is scheduling-independent: two
    runs of the same program produce the same ordering regardless of
    how the rank threads interleaved on the host.
    """
    return sorted(events, key=lambda e: (e.t_end, e.t_start, e.rank))


def evaluate_health(
    events: Iterable[Any],
    config: Optional[HealthConfig] = None,
) -> "HealthReport":
    """Replay a recorded trace through the rules, deterministically.

    Bit-stable for a given trace: events are fed in virtual-time order,
    so cross-rank rules see the same interleave every run.  This is the
    evaluation RunRecords embed.
    """
    monitor = HealthMonitor(config)
    for event in virtual_order(events):
        monitor.observe_event(event)
    return monitor.finish()


class HealthReport:
    """The immutable outcome: raised events plus per-kind counts."""

    def __init__(self, events: Tuple[HealthEvent, ...]) -> None:
        self.events = tuple(events)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    @property
    def worst(self) -> Optional[str]:
        """``"crit"``, ``"warn"``, or ``None`` when healthy."""
        severities = {ev.severity for ev in self.events}
        if "crit" in severities:
            return "crit"
        if "warn" in severities:
            return "warn"
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts,
            "events": [ev.to_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HealthReport":
        return cls(
            tuple(HealthEvent.from_dict(e) for e in payload.get("events", ()))
        )

    def to_table(self, title: str = "health events") -> ResultTable:
        table = ResultTable(
            title, columns=["kind", "severity", "rank", "step", "t_s", "detail"]
        )
        for ev in self.events:
            table.add_row(
                kind=ev.kind,
                severity=ev.severity,
                rank=ev.rank,
                step="" if ev.step is None else ev.step,
                t_s=f"{ev.t_s:.6f}",
                detail=ev.detail,
            )
        return table
