"""Terminal stream for ``repro watch``, replayed from the recorded trace.

The run finishes first; :func:`stream_watch` then walks its trace in
append order, which is the scheduler's order and fixed run to run.
Heartbeats become progress lines, and every rule firing becomes a
highlighted alert line right after the event that tripped it.  The
verdict is not this stream: it is :func:`~repro.observe.health.
evaluate_health`, the same rules fed in virtual-time order.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Optional, TextIO

from repro.observe.health import HealthConfig, HealthMonitor
from repro.telemetry.heartbeat import HB_OP

__all__ = ["stream_watch"]

_SEVERITY_MARK = {"warn": "WARN", "crit": "CRIT"}


def stream_watch(
    events: Iterable[Any],
    config: HealthConfig,
    stream: Optional[TextIO] = None,
    *,
    heartbeats: bool = True,
) -> None:
    """Print ``events`` as heartbeat lines and the alerts they raise.

    With ``heartbeats=False`` only the alerts are printed (``--quiet``).
    """
    stream = stream if stream is not None else sys.stdout
    monitor = HealthMonitor(config)
    shown = 0

    def alerts() -> None:
        nonlocal shown
        for ev in monitor.events[shown:]:
            mark = _SEVERITY_MARK.get(ev.severity, ev.severity.upper())
            step = "" if ev.step is None else f" step {ev.step}"
            stream.write(
                f"!! {mark} {ev.kind}: rank {ev.rank}{step} "
                f"@t={ev.t_s:.6f}s — {ev.detail}\n"
            )
        shown = len(monitor.events)

    for event in events:
        if heartbeats and event.op == HB_OP:
            fields = dict(event.tag)
            loss = fields.get("loss")
            loss_txt = "" if loss is None else f"  loss={loss:.6g}"
            stream.write(
                f"  [t={event.t_end:.6f}s] rank {event.rank} "
                f"step {fields.get('step', '?')}{loss_txt}\n"
            )
        monitor.observe_event(event)
        alerts()
    monitor.finish()
    alerts()
