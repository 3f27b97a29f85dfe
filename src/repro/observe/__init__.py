"""Run health judged from the trace, and the longitudinal run registry.

Two halves (docs/OBSERVE.md):

* :mod:`repro.observe.health` — rules over per-rank heartbeats and
  trace events in *virtual* time, judged after the run from its
  recorded trace.  :func:`evaluate_health` replays the trace in
  virtual-time order and raises typed :class:`HealthEvent`\\ s (stall,
  straggler, loss NaN/divergence, comm-wait spike, checkpoint
  degradation) into a deterministic :class:`HealthReport`; this is
  what RunRecords embed.  ``repro watch`` prints the same rules'
  alerts over a replay in scheduler order (:mod:`repro.observe.watch`).
* :mod:`repro.observe.registry` — an append-only JSONL store
  (``benchmarks/REGISTRY.jsonl``) ingesting RunRecords and BENCH
  results, with rolling median + MAD trend baselines powering the
  ``repro history`` drift gate and the ``repro dash`` HTML dashboard.
"""

from repro.observe.health import (
    HEALTH_KINDS,
    HealthConfig,
    HealthEvent,
    HealthMonitor,
    HealthReport,
    evaluate_health,
)
from repro.observe.registry import (
    REGISTRY_SCHEMA,
    DriftThresholds,
    RegistryEntry,
    append_entries,
    compute_trends,
    entry_from_bench,
    entry_from_record,
    load_registry,
    record_metrics,
)

__all__ = [
    "HEALTH_KINDS",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "HealthReport",
    "evaluate_health",
    "REGISTRY_SCHEMA",
    "DriftThresholds",
    "RegistryEntry",
    "append_entries",
    "compute_trends",
    "entry_from_bench",
    "entry_from_record",
    "load_registry",
    "record_metrics",
]
