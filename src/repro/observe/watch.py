"""Terminal renderer for ``repro watch`` — the live monitor view.

Sits in the tracer sink chain: every trace event flows through
:meth:`WatchRenderer.observe_event`, heartbeats become progress lines,
and rule firings (delivered via the monitor's ``on_event`` hook) become
highlighted alert lines, all while the run executes.  Output order
across ranks follows the scheduler and is fixed run to run, but it is
a *live* view; the verdict is the RunRecord's health block.

Writes are serialized under one lock so lines never shear, and the
renderer never touches virtual time, preserving the bit-identity
invariant of the monitor itself.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Optional, TextIO

from repro.observe.health import HealthEvent, HealthMonitor
from repro.telemetry.heartbeat import HB_OP

__all__ = ["WatchRenderer"]

_SEVERITY_MARK = {"warn": "WARN", "crit": "CRIT"}


class WatchRenderer:
    """Streams heartbeats and health alerts to a terminal.

    Parameters
    ----------
    monitor:
        The :class:`~repro.observe.health.HealthMonitor` to feed; the
        renderer installs itself as the monitor's ``on_event`` hook.
    stream:
        Output stream (stdout by default).
    heartbeats:
        With ``False`` only health alerts are printed (``--quiet``).
    """

    def __init__(
        self,
        monitor: HealthMonitor,
        stream: Optional[TextIO] = None,
        *,
        heartbeats: bool = True,
    ) -> None:
        self.monitor = monitor
        self.stream = stream if stream is not None else sys.stdout
        self.heartbeats = heartbeats
        self._lock = threading.Lock()
        monitor.on_event = self.on_health

    def _emit(self, line: str) -> None:
        with self._lock:
            self.stream.write(line + "\n")

    # -- the sink (chains into the monitor) --------------------------------

    def observe_event(self, event: Any) -> None:
        if self.heartbeats and event.op == HB_OP:
            fields = dict(event.tag)
            loss = fields.get("loss")
            loss_txt = "" if loss is None else f"  loss={loss:.6g}"
            self._emit(
                f"  [t={event.t_end:.6f}s] rank {event.rank} "
                f"step {fields.get('step', '?')}{loss_txt}"
            )
        self.monitor.observe_event(event)

    def on_health(self, ev: HealthEvent) -> None:
        mark = _SEVERITY_MARK.get(ev.severity, ev.severity.upper())
        step = "" if ev.step is None else f" step {ev.step}"
        self._emit(
            f"!! {mark} {ev.kind}: rank {ev.rank}{step} "
            f"@t={ev.t_s:.6f}s — {ev.detail}"
        )
