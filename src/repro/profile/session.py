"""``ProfileSession`` — the user-facing surface of the self-profiler.

Usage::

    from repro.profile import ProfileSession

    with ProfileSession(hz=197) as prof:
        distributed_mlp_train(..., engine=engine)
    report = prof.report()
    print(report.to_table().to_ascii())

Entering the session installs the hook counter block
(:mod:`repro.profile.hooks`), enables the span sampling registry
(:mod:`repro.telemetry.spans`), and starts the sampler thread; exiting
tears all three down and freezes the results.  Only one session may be
active per process, and a session is single-use.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..telemetry import spans as _spans
from . import hooks as _hooks
from .attribution import SUBSYSTEMS
from .sampler import Sampler

#: Documented ceiling on profiler self-overhead (fraction of wall
#: time), enforced end-to-end by ``benchmarks/bench_profile.py``.
OVERHEAD_BUDGET = 0.05

#: Default sampling rate.  A prime Hz avoids aliasing against periodic
#: simulator behaviour (steps, heartbeats) that a round 100/200 Hz
#: could phase-lock onto.
DEFAULT_HZ = 197.0

#: Message-path buckets whose sampled host time forms the µs/msg
#: numerator (payload copy/measure + postal model — the ROADMAP's
#: "per-message Python").
MESSAGE_SUBSYSTEMS = ("message", "network")

#: Scheduler buckets whose sampled host time forms the µs/switch
#: numerator: busy scheduler frames plus the no-frame handoff cost of
#: the switches themselves.
SCHEDULER_SUBSYSTEMS = ("scheduler", "handoff")


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Frozen attribution report for one closed session."""

    wall_s: float
    hz: float
    ticks: int
    idle_ticks: int
    overruns: int
    throttled: int
    rows: Tuple[Dict[str, Any], ...]  # subsystem, weight, host_s, share
    counters: Dict[str, int]
    us_per_msg: Optional[float]
    us_per_msg_allin: Optional[float]
    us_per_switch: Optional[float]
    sampler_busy_s: float
    overhead_frac: float
    samples: int
    samples_dropped: int

    @property
    def attribution_total_s(self) -> float:
        """Sum of per-subsystem host times (== wall_s by construction
        whenever at least one tick landed)."""
        return sum(row["host_s"] for row in self.rows)

    def to_table(self):
        from ..core.results import ResultTable

        table = ResultTable(
            title=f"host-time attribution ({self.wall_s:.3f}s wall, "
                  f"{self.ticks} ticks @ {self.hz:g}Hz)",
            columns=["subsystem", "host_s", "share", "ticks"],
        )
        for row in self.rows:
            table.add_row(
                subsystem=row["subsystem"],
                host_s=row["host_s"],
                share=f"{row['share']:.1%}",
                ticks=row["weight"],
            )
        return table

    def to_dict(self) -> dict:
        return {
            "schema": "repro.profile.report/v1",
            "wall_s": self.wall_s,
            "hz": self.hz,
            "ticks": self.ticks,
            "idle_ticks": self.idle_ticks,
            "overruns": self.overruns,
            "throttled": self.throttled,
            "rows": [dict(row) for row in self.rows],
            "counters": dict(self.counters),
            "us_per_msg": self.us_per_msg,
            "us_per_msg_allin": self.us_per_msg_allin,
            "us_per_switch": self.us_per_switch,
            "sampler_busy_s": self.sampler_busy_s,
            "overhead_frac": self.overhead_frac,
            "overhead_budget": OVERHEAD_BUDGET,
            "samples": self.samples,
            "samples_dropped": self.samples_dropped,
        }


class ProfileSession:
    """Context manager profiling everything that runs inside it.

    Parameters
    ----------
    hz:
        Sampling rate of the frame-walking thread.  Higher rates
        sharpen attribution on short runs at the cost of overhead
        (still well under the budget at the default).
    max_samples:
        Cap on retained per-tick detail records (virtual-time/span
        correlation rows).  Beyond the cap, detail rows are counted in
        :attr:`samples_dropped` — aggregate attribution and collapsed
        stacks are *never* dropped.
    """

    def __init__(self, hz: float = DEFAULT_HZ, max_samples: int = 100_000) -> None:
        if not hz > 0:
            raise ConfigurationError(f"sampling hz must be positive, got {hz}")
        if max_samples < 0:
            raise ConfigurationError(
                f"max_samples must be >= 0, got {max_samples}"
            )
        self.hz = float(hz)
        self.max_samples = int(max_samples)
        self.wall_s = 0.0
        self.closed = False
        self._entered = False
        self._sampler: Optional[Sampler] = None
        self._hooks: Optional[_hooks.HookCounters] = None
        self._t0 = 0.0

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ProfileSession":
        if self._entered:
            raise RuntimeError("ProfileSession is single-use; create a new one")
        self._entered = True
        # The sampler thread must not get a malloc arena of its own: the
        # simulator's rank threads would then be split over two heaps.
        from ..simmpi.events import share_one_heap

        share_one_heap()
        self._hooks = _hooks.activate(self)
        _spans.enable_registry()
        self._sampler = Sampler(self._hooks, self.hz, self.max_samples)
        self._t0 = perf_counter()
        self._sampler.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._sampler.stop()
        self.wall_s = perf_counter() - self._t0
        _spans.disable_registry()
        _hooks.deactivate()
        self.closed = True

    # -- live/closed accessors ----------------------------------------------

    @property
    def ticks(self) -> int:
        return self._sampler.ticks if self._sampler is not None else 0

    @property
    def samples(self) -> List[Any]:
        return self._sampler.samples if self._sampler is not None else []

    @property
    def samples_dropped(self) -> int:
        return self._sampler.samples_dropped if self._sampler is not None else 0

    @property
    def collapsed(self) -> Dict[Tuple[str, ...], float]:
        return dict(self._sampler.collapsed) if self._sampler is not None else {}

    @property
    def counters(self) -> Dict[str, int]:
        return self._hooks.counters() if self._hooks is not None else {}

    # -- reporting ----------------------------------------------------------

    def report(self) -> ProfileReport:
        """Build the attribution report (call after the session closes)."""
        if not self.closed:
            raise RuntimeError("ProfileSession.report() requires a closed session")
        sampler = self._sampler
        counters = self._hooks.counters()
        ticks = sampler.ticks
        wall = self.wall_s
        rows = []
        for name in SUBSYSTEMS:
            weight = float(sampler.subsystem_weight.get(name, 0.0))
            if ticks > 0:
                host_s = wall * weight / ticks
                share = weight / ticks
            else:
                host_s = 0.0
                share = 0.0
            rows.append({
                "subsystem": name,
                "weight": weight,
                "host_s": host_s,
                "share": share,
            })
        by_name = {row["subsystem"]: row["host_s"] for row in rows}
        msg_host_s = sum(by_name[name] for name in MESSAGE_SUBSYSTEMS)
        sched_host_s = sum(by_name[name] for name in SCHEDULER_SUBSYSTEMS)
        msgs = counters["msgs_sent"]
        us_per_msg = 1e6 * msg_host_s / msgs if msgs > 0 else None
        # All-in per-message host cost: total wall over message count —
        # counter-exact (no sampling involved), the before/after number
        # message-path optimizations are gated on.
        us_per_msg_allin = 1e6 * wall / msgs if msgs > 0 else None
        us_per_switch = (
            1e6 * sched_host_s / counters["switches"]
            if counters["switches"] > 0 else None
        )
        overhead = sampler.busy_s / wall if wall > 0 else 0.0
        return ProfileReport(
            wall_s=wall,
            hz=self.hz,
            ticks=ticks,
            idle_ticks=sampler.idle_ticks,
            overruns=sampler.overruns,
            throttled=sampler.throttled,
            rows=tuple(rows),
            counters=counters,
            us_per_msg=us_per_msg,
            us_per_msg_allin=us_per_msg_allin,
            us_per_switch=us_per_switch,
            sampler_busy_s=sampler.busy_s,
            overhead_frac=overhead,
            samples=len(sampler.samples),
            samples_dropped=sampler.samples_dropped,
        )


def host_block(engine: Any) -> Dict[str, Any]:
    """The RunRecord ``host`` block for an engine's last run.

    Schema-additive observability (see ``repro.analysis.record``):
    host wall-clock of the last ``engine.run`` plus, when that run was
    profiled, the sampler's tick and drop counters.  Empty dict (block
    omitted from the record) for engines that never ran under the
    instrumented path.
    """
    block: Dict[str, Any] = {}
    wall = getattr(engine, "last_host_wall_s", None)
    if wall is not None:
        block["wall_s"] = float(wall)
    session = getattr(engine, "last_profile", None)
    if session is not None:
        block["samples"] = int(session.ticks)
        block["samples_dropped"] = int(session.samples_dropped)
    return block
