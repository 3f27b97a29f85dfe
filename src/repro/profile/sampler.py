"""The sampling thread behind :class:`~repro.profile.session.ProfileSession`.

A dedicated daemon thread wakes at a configurable Hz, snapshots every
thread's stack via ``sys._current_frames()``, and attributes the tick:

* Threads whose innermost frame is a known blocking site (parked
  tasklets, condition waits, joins — see
  :mod:`repro.profile.attribution`) are *idle* and skipped without
  walking their stacks, so a P=512 run costs ~P cheap
  innermost-frame checks plus one full stack walk per tick.
* Each tick carries exactly **one** weight unit.  If no thread is
  busy the unit goes to ``handoff`` while an engine run is in
  progress (the futex/GIL cost of a scheduler switch — real wall
  time with no Python frame executing anywhere) and to ``idle``
  otherwise; if threads are busy it is split evenly over their
  stacks.  Host time per subsystem is then
  ``wall_s * weight / ticks``, so the attribution rows sum to the
  measured wall-clock *by construction*.

Known bias: an in-process sampler can only take the GIL when the
simulator releases it, and on a single-core host those release points
are predominantly the blocking calls of a switch — so ``handoff`` is
over-weighted and busy buckets under-weighted there.  On multi-core
hosts the sampler runs on its own core and the bias largely
disappears.  The counter-derived metrics (all-in µs/msg, switch and
message counts) are exact either way; see ``docs/PROFILE.md``.
* Each sample is correlated with the registered engine's current
  virtual time (the running tasklet's clock, or the max clock when no
  tasklet holds the baton) and the busy thread's active
  telemetry span (via the sampling registry in
  :mod:`repro.telemetry.spans`).

The sampler measures its own busy time directly with ``perf_counter``
pairs around each tick — that figure is the profiler's self-overhead
and is reported against the <5% budget.  No signals, no
``sys.setprofile``: the simulator's threads are never interrupted
mid-bytecode beyond the GIL handoff the snapshot itself costs.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry import spans as _spans
from .attribution import classify_frame, code_info, stack_frames

#: Self-pacing ceiling on the sampler's own busy fraction: 80% of the
#: documented 5% overhead budget (``session.OVERHEAD_BUDGET``; the
#: literal is repeated here to keep this module import-light), leaving
#: headroom for the hook counters and the GIL handoff each snapshot
#: costs.  When one tick is expensive — e.g. ``sys._current_frames()``
#: over hundreds of parked rank threads — the sampler stretches its
#: interval so ``busy_s / wall_s`` stays under this fraction instead
#: of blowing the budget at high rank counts.
TARGET_BUSY_FRAC = 0.04


class Sample:
    """One retained detail sample (the capped per-tick record)."""

    __slots__ = ("t_host_s", "t_virtual_s", "rank", "subsystem", "span", "leaf", "weight")

    def __init__(self, t_host_s, t_virtual_s, rank, subsystem, span, leaf, weight):
        self.t_host_s = t_host_s
        self.t_virtual_s = t_virtual_s
        self.rank = rank
        self.subsystem = subsystem
        self.span = span
        self.leaf = leaf
        self.weight = weight

    def to_dict(self) -> dict:
        return {
            "t_host_s": self.t_host_s,
            "t_virtual_s": self.t_virtual_s,
            "rank": self.rank,
            "subsystem": self.subsystem,
            "span": self.span,
            "leaf": self.leaf,
            "weight": self.weight,
        }


class Sampler(threading.Thread):
    """Walks frames at ``hz`` until stopped; accumulates attribution."""

    def __init__(self, hooks: Any, hz: float, max_samples: int) -> None:
        super().__init__(name="repro-profile-sampler", daemon=True)
        self._hooks = hooks
        self._stop_event = threading.Event()
        self.interval_s = 1.0 / hz
        self.max_samples = max_samples
        self.ticks = 0
        self.idle_ticks = 0
        self.overruns = 0
        self.throttled = 0  # ticks delayed by the busy-fraction pacer
        self.busy_s = 0.0  # sampler self-time (perf_counter pairs)
        self.subsystem_weight: Dict[str, float] = Counter()
        self.collapsed: Dict[Tuple[str, ...], float] = Counter()
        self.samples: List[Sample] = []
        self.samples_dropped = 0
        self._t0 = perf_counter()

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via ProfileSession
        interval = self.interval_s
        cost_ema = 0.0
        next_tick = perf_counter() + interval
        while True:
            delay = next_tick - perf_counter()
            if delay > 0:
                if self._stop_event.wait(delay):
                    return
            else:
                # Fell behind (a tick cost more than the interval, or the
                # GIL was held elsewhere): resync rather than burst.
                self.overruns += 1
                next_tick = perf_counter()
            if self._stop_event.is_set():
                return
            t_before = perf_counter()
            self.sample_once()
            cost = perf_counter() - t_before
            cost_ema = cost if cost_ema == 0.0 else 0.8 * cost_ema + 0.2 * cost
            # Self-pace: never let our own busy fraction exceed
            # TARGET_BUSY_FRAC, whatever the requested hz.
            paced = cost_ema / TARGET_BUSY_FRAC
            if paced > interval:
                self.throttled += 1
                next_tick += paced
            else:
                next_tick += interval

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join()

    # -- one tick -----------------------------------------------------------

    def sample_once(self) -> None:
        t_tick = perf_counter()
        own = self.ident
        busy = []
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            if code_info(frame.f_code)[2]:  # idle innermost frame
                continue
            busy.append((tid, frame))
        self.ticks += 1
        if not busy:
            self.idle_ticks += 1
            if self._hooks.runs_active > 0:
                self.subsystem_weight["handoff"] += 1.0
            else:
                self.subsystem_weight["idle"] += 1.0
        else:
            weight = 1.0 / len(busy)
            t_virtual, current_rank = self._virtual_now()
            t_host = t_tick - self._t0
            for tid, frame in busy:
                subsystem = classify_frame(frame)
                stack = stack_frames(frame)
                self.subsystem_weight[subsystem] += weight
                self.collapsed[stack] += weight
                if len(self.samples) < self.max_samples:
                    self.samples.append(Sample(
                        t_host_s=t_host,
                        t_virtual_s=t_virtual,
                        rank=current_rank,
                        subsystem=subsystem,
                        span=_spans.registered_path(tid),
                        leaf=stack[-1] if stack else "",
                        weight=weight,
                    ))
                else:
                    self.samples_dropped += 1
        self.busy_s += perf_counter() - t_tick

    def _virtual_now(self) -> Tuple[Optional[float], Optional[int]]:
        """(virtual time, running rank) from the registered engine.

        Read-only and racy by design: the sampler observes whatever the
        simulator's state is mid-flight.  Any torn read surfaces as a
        ``None`` correlation on that sample, never as an error.
        """
        engine = self._hooks.engine
        if engine is None:
            return None, None
        try:
            clocks = engine._clocks
            core = engine._event_core
            if core is not None:
                task = core._current
                if task is not None:
                    rank = task.rank
                    return clocks[rank], rank
            return (max(clocks) if clocks else None), None
        except Exception:
            return None, None
