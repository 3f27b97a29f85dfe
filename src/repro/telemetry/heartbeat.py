"""Per-rank progress heartbeats for the live health monitor.

A heartbeat is a zero-duration :class:`~repro.simmpi.tracing.TraceEvent`
(``op == "hb"``) each trainer emits once per step (once per panel for
SUMMA), carrying the step index and, when the program computes one, the
global loss.  Heartbeats are the substrate the
:mod:`repro.observe.health` rule engine evaluates: stall detection
("rank 3 stopped emitting"), straggler detection ("rank 0's step clock
is 1.4x the median"), and loss divergence/NaN all read them.

Emission is observability-only by construction: recording never touches
the virtual clock, costs no simulated communication, and is a no-op
when tracing is disabled — so monitored runs are bit-identical to
unmonitored ones (property-tested in ``tests/test_observe_health.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.simmpi.tracing import TraceEvent

__all__ = ["HB_OP", "emit_heartbeat"]

#: The trace-event op carried by every heartbeat.
HB_OP = "hb"


def emit_heartbeat(
    comm: Any,
    *,
    step: int,
    loss: Optional[float] = None,
    phase: Optional[str] = None,
) -> None:
    """Record one heartbeat on ``comm``'s tracer (no-op when disabled).

    ``step`` is the per-rank progress counter (training step, or panel
    index for SUMMA); ``loss`` is the global loss when the step computed
    one; ``phase`` optionally names the emitting trainer phase.  The
    event is zero-duration at the rank's current virtual clock and
    carries the fields as sorted tag pairs, like span attributes do.
    """
    tracer = comm._engine.tracer
    if not tracer.enabled:
        return
    attrs: Dict[str, Any] = {"step": step}
    if loss is not None:
        attrs["loss"] = float(loss)
    if phase is not None:
        attrs["phase"] = phase
    now = comm.clock
    tracer.record(
        TraceEvent(
            comm.world_rank,
            HB_OP,
            -1,
            0,
            now,
            now,
            tuple(sorted(attrs.items())),
        )
    )
