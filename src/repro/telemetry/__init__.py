"""Observability for the simulated runtime: spans, metrics, exporters, audits.

The package splits into four pieces:

* :mod:`repro.telemetry.spans` — nestable, virtual-time-aware phase
  markers; every trace event recorded inside a span carries its path.
* :mod:`repro.telemetry.metrics` — a counters/gauges/histograms registry
  that can stream-consume trace events (``SimEngine(metrics=...)``).
* :mod:`repro.telemetry.chrome` — Chrome ``trace_event`` JSON export
  (one track per rank; open in Perfetto / ``chrome://tracing``).
* :mod:`repro.telemetry.audit` — measured-vs-analytic communication
  audits against Eqs. 3/4/8 of the paper.
* :mod:`repro.telemetry.heartbeat` — per-rank progress heartbeats the
  health rules (:mod:`repro.observe`) evaluate from the trace.

Only the always-needed, dependency-light pieces are imported here;
``chrome``, ``audit`` and ``summary`` are imported where used (they pull
in the tracing and cost-model layers).
"""

from repro.telemetry.heartbeat import HB_OP, emit_heartbeat
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import base_name, current_path, format_label, parse_label, span

__all__ = [
    "span",
    "current_path",
    "format_label",
    "parse_label",
    "base_name",
    "MetricsRegistry",
    "HB_OP",
    "emit_heartbeat",
]
