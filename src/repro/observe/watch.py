"""Terminal stream for ``repro watch``, replayed from the recorded trace.

The run finishes first; :func:`stream_watch` then feeds its trace
through one :class:`~repro.observe.health.HealthMonitor` in virtual-time
order (:func:`~repro.observe.health.virtual_order`), the order
:func:`~repro.observe.health.evaluate_health` uses.  Heartbeats become
progress lines, and every rule firing becomes a highlighted alert line
right after the event that tripped it.  The monitor's
:meth:`~repro.observe.health.HealthMonitor.finish` is the verdict, so
the alerts streamed are exactly the verdict's events, in order.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, TextIO

from repro.observe.health import HealthConfig, HealthMonitor, HealthReport, virtual_order
from repro.telemetry.heartbeat import HB_OP

__all__ = ["stream_watch"]

_SEVERITY_MARK = {"warn": "WARN", "crit": "CRIT"}


def stream_watch(
    events: Iterable[Any],
    config: HealthConfig,
    stream: Optional[TextIO],
    *,
    heartbeats: bool = True,
) -> HealthReport:
    """Replay ``events`` in virtual order, print heartbeat lines and the
    alerts they raise to ``stream``, and return the verdict.

    With ``heartbeats=False`` only the alerts are printed (``--quiet``);
    with ``stream=None`` nothing is (``--json``).
    """
    monitor = HealthMonitor(config)
    heartbeats = heartbeats and stream is not None
    shown = 0

    def alerts() -> None:
        nonlocal shown
        if stream is not None:
            for ev in monitor.events[shown:]:
                mark = _SEVERITY_MARK.get(ev.severity, ev.severity.upper())
                step = "" if ev.step is None else f" step {ev.step}"
                stream.write(
                    f"!! {mark} {ev.kind}: rank {ev.rank}{step} "
                    f"@t={ev.t_s:.6f}s — {ev.detail}\n"
                )
        shown = len(monitor.events)

    for event in virtual_order(events):
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
    report = monitor.finish()
    alerts()
    return report
