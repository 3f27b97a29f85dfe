"""Trace analysis: where the virtual time of a simulated run goes.

The telemetry layer records *what happened* (spans, messages, faults);
this package explains *why the step took as long as it did*:

* :mod:`repro.analysis.accounting` — per-rank compute/comm/wait
  decomposition, load imbalance, straggler and idle-fraction metrics;
* :mod:`repro.analysis.critical` — the cross-rank dependency DAG, the
  critical path bounding the makespan, and per-event slack;
* :mod:`repro.analysis.record` — versioned, schema-validated
  :class:`RunRecord` artifacts every trainer can emit;
* :mod:`repro.analysis.diff` — regression detection between two
  records, the run-record analogue of the ``benchmarks/`` gates.

Everything here is a pure consumer of
:class:`~repro.simmpi.tracing.TraceEvent` streams: analysis never
touches the simulation, so traced-and-analyzed runs keep bit-identical
weights and virtual timings to untraced ones.
"""

from repro.analysis.accounting import (
    AccountingReport,
    RankAccount,
    rank_accounting,
)
from repro.analysis.critical import (
    CriticalEvent,
    CriticalPathReport,
    DependencyGraph,
    attribute_event,
    build_dependency_graph,
    critical_path,
)
from repro.analysis.diff import (
    DiffReport,
    DiffThresholds,
    Regression,
    diff_records,
)
from repro.analysis.record import (
    RUN_RECORD_SCHEMA,
    RunRecord,
    build_run_record,
    read_run_record,
    validate_run_record,
    write_run_record,
)

__all__ = [
    "AccountingReport",
    "RankAccount",
    "rank_accounting",
    "CriticalEvent",
    "CriticalPathReport",
    "DependencyGraph",
    "attribute_event",
    "build_dependency_graph",
    "critical_path",
    "DiffReport",
    "DiffThresholds",
    "Regression",
    "diff_records",
    "RUN_RECORD_SCHEMA",
    "RunRecord",
    "build_run_record",
    "read_run_record",
    "validate_run_record",
    "write_run_record",
    "register_analysis_metrics",
]


def register_analysis_metrics(registry, cp, accounting) -> None:
    """Publish analysis results into a metrics registry.

    Sets the ``analysis.*`` gauges/counters — DAG size, critical-path
    length and event count, idle fraction, imbalance — so ``repro
    trace`` (and any metrics export) surfaces them alongside the
    communication audit.  ``registry`` is a
    :class:`~repro.telemetry.metrics.MetricsRegistry`; ``cp`` a
    :class:`CriticalPathReport`; ``accounting`` an
    :class:`AccountingReport`.
    """
    registry.counter("analysis.dag_nodes", "dependency DAG nodes").inc(
        cp.graph.n_nodes
    )
    registry.counter("analysis.dag_edges", "dependency DAG edges").inc(
        cp.graph.n_edges
    )
    registry.counter("analysis.critical_events", "events on the critical path").inc(
        len(cp.path)
    )
    registry.gauge("analysis.critical_seconds", "critical-path virtual length").set(
        cp.length_s
    )
    registry.gauge("analysis.makespan_seconds", "virtual makespan").set(
        cp.makespan_s
    )
    registry.gauge("analysis.idle_fraction", "idle share of P x makespan").set(
        accounting.idle_fraction
    )
    registry.gauge("analysis.imbalance", "max/mean compute time").set(
        accounting.imbalance
    )
    registry.gauge("analysis.straggler_rank", "rank bounding the makespan").set(
        accounting.straggler_rank
    )
