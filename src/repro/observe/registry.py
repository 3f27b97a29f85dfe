"""The longitudinal run registry and its drift observatory.

An append-only JSONL store (one :class:`RegistryEntry` per line,
``benchmarks/REGISTRY.jsonl`` by convention) that ingests every
RunRecord (``repro faults --record``, ``repro trace --record``,
``repro watch --record``) and every BENCH result
(``benchmarks/BENCH_*.json``, written by ``benchmarks/bench_*.py``)
the project produces, turning
point-in-time gates into *trajectories*.

Entries are grouped into **series** — one per distinct run
configuration or bench — and each metric inside a series gets a trend
baseline: the rolling median with a MAD (median absolute deviation)
band over the prior entries.  The newest entry is judged against the
band with the robust z-score ``0.6745 * |x - median| / MAD``; because
virtual-time metrics repeat *exactly* run after run, a zero MAD is the
common case and the judgement falls back to relative deviation from
the median (``rel_warn``/``rel_crit``).  ``repro history`` renders the
verdicts and exits 0/1/2 (ok / warn / drift); ``repro dash`` renders
the same data as a static HTML dashboard.

The file format is deliberately dumb: one self-describing JSON object
per line, schema-tagged, unknown lines rejected loudly.  Append-only
means history is never rewritten — a drifted metric stays visible even
after it recovers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError

__all__ = [
    "REGISTRY_SCHEMA",
    "RegistryEntry",
    "DriftThresholds",
    "MetricTrend",
    "record_metrics",
    "entry_from_record",
    "entry_from_bench",
    "entry_from_payload",
    "load_registry",
    "append_entries",
    "compute_trends",
    "trend_table",
    "worst_status",
]

REGISTRY_SCHEMA = "repro.observe.registry/v1"

#: A BENCH result's schema tag; the ``<name>`` names its series.
_BENCH_SCHEMA = re.compile(r"repro\.(\w+)\.bench/v\d+")


@dataclasses.dataclass(frozen=True)
class RegistryEntry:
    """One ingested result: a series key plus its flat numeric metrics."""

    kind: str  # "run" | "bench"
    series: str
    metrics: Dict[str, float]
    source: str = ""
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": REGISTRY_SCHEMA,
            "kind": self.kind,
            "series": self.series,
            "metrics": dict(self.metrics),
        }
        if self.source:
            payload["source"] = self.source
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RegistryEntry":
        if not isinstance(payload, dict):
            raise ConfigurationError("registry entry must be a JSON object")
        if payload.get("schema") != REGISTRY_SCHEMA:
            raise ConfigurationError(
                f"registry entry schema must be {REGISTRY_SCHEMA!r}, "
                f"got {payload.get('schema')!r}"
            )
        kind = payload.get("kind")
        if kind not in ("run", "bench"):
            raise ConfigurationError(f"registry entry kind {kind!r} unknown")
        series = payload.get("series")
        if not isinstance(series, str) or not series:
            raise ConfigurationError("registry entry needs a non-empty series")
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise ConfigurationError("registry entry needs a metrics object")
        for name, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"registry metric {name!r} must be a number, got {value!r}"
                )
        return cls(
            kind=kind,
            series=series,
            metrics={k: float(v) for k, v in metrics.items()},
            source=payload.get("source", ""),
            meta=dict(payload.get("meta", {})),
        )


# -- ingestion ------------------------------------------------------------


def _config_fragment(value: Any) -> str:
    """A compact, stable string for one config value inside a series key."""
    if isinstance(value, (list, tuple)):
        return "x".join(_config_fragment(v) for v in value)
    return str(value)


def _run_series(payload: Dict[str, Any]) -> str:
    cfg = ",".join(
        f"{k}={_config_fragment(v)}" for k, v in sorted(payload["config"].items())
    )
    grid = payload["grid"]
    return f"run:{payload['trainer']}:{cfg},grid={grid['pr']}x{grid['pc']}"


def record_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a RunRecord dict into the registry's trendable metrics.

    Pure virtual-time quantities plus exact counters: makespan,
    critical-path length, idle fraction and imbalance, per-span
    time/bytes/sends, the sdc/ckpt counter blocks, per-kind health
    counts, and the dropped-event count (lossy traces stay visible in
    the trend).
    """
    from repro.analysis.record import validate_run_record

    validate_run_record(payload)
    metrics: Dict[str, float] = {
        "makespan_s": float(payload["makespan_s"]),
        "critical_s": float(payload["critical"]["length_s"]),
        "dropped": float(payload["dropped"]),
    }
    counters = payload["counters"]
    for key in ("idle_fraction", "imbalance"):
        if key in counters:
            metrics[key] = float(counters[key])
    for row in payload["spans"]:
        name = row["span"]
        metrics[f"span.{name}.time_s"] = float(row["virtual_time_s"])
        metrics[f"span.{name}.bytes"] = float(row["bytes"])
        metrics[f"span.{name}.sends"] = float(row["sends"])
    for block in ("sdc", "ckpt"):
        for key, value in payload.get(block, {}).items():
            metrics[f"{block}.{key}"] = float(value)
    for kind, count in payload.get("health", {}).get("counts", {}).items():
        metrics[f"health.{kind}"] = float(count)
    return metrics


def entry_from_record(
    payload: Dict[str, Any], source: str = ""
) -> RegistryEntry:
    """Build the registry entry for one RunRecord dict."""
    return RegistryEntry(
        kind="run",
        series=_run_series(payload),
        metrics=record_metrics(payload),
        source=source,
        meta={"schema": payload["schema"]},
    )


def entry_from_bench(payload: Dict[str, Any], source: str = "") -> RegistryEntry:
    """Build the registry entry for one BENCH result dict.

    Recognizes every ``repro.<name>.bench/v<N>`` schema as series
    ``bench:<name>``; the metrics are the numeric scalar fields of the
    payload (``overhead``, ``speedup``, ``reduction``, timings, ...),
    which is exactly what the gates threshold on.
    """
    schema = payload.get("schema", "")
    match = _BENCH_SCHEMA.fullmatch(str(schema))
    if match is None:
        raise ConfigurationError(
            f"cannot ingest payload with schema {schema!r} "
            "(expected a run record or a repro.<name>.bench/v<N> result)"
        )
    metrics = {
        key: float(value)
        for key, value in payload.items()
        if not isinstance(value, bool) and isinstance(value, (int, float))
    }
    if not metrics:
        raise ConfigurationError(f"bench payload {schema!r} has no numeric metrics")
    return RegistryEntry(
        kind="bench",
        series=f"bench:{match.group(1)}",
        metrics=metrics,
        source=source,
        meta={"schema": schema},
    )


def entry_from_payload(payload: Dict[str, Any], source: str = "") -> RegistryEntry:
    """Auto-detect RunRecord vs BENCH result by schema tag."""
    if not isinstance(payload, dict):
        raise ConfigurationError("cannot ingest a payload that is not a JSON object")
    if str(payload.get("schema", "")).startswith("repro.analysis.record/"):
        return entry_from_record(payload, source)
    return entry_from_bench(payload, source)


# -- the store ------------------------------------------------------------


def load_registry(path: str) -> List[RegistryEntry]:
    """Read every entry of a JSONL registry (empty list for no file)."""
    if not os.path.exists(path):
        return []
    entries: List[RegistryEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            try:
                entries.append(RegistryEntry.from_dict(payload))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return entries


def append_entries(path: str, entries: Iterable[RegistryEntry]) -> int:
    """Append entries to the JSONL registry; returns how many were written."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


# -- trends ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DriftThresholds:
    """When does the newest point of a series count as drifted?"""

    #: Baseline entries required before judging (younger series report
    #: ``"short"`` and never gate).
    min_history: int = 4
    #: Robust z-score (0.6745 * |x - med| / MAD) bands.
    warn_z: float = 3.0
    crit_z: float = 4.0
    #: Relative-deviation bands used when the MAD is zero — the common
    #: case for bit-stable virtual metrics, where *any* change is
    #: suspicious but float-level jitter in host-measured benches isn't.
    rel_warn: float = 0.02
    rel_crit: float = 0.10

    def validate(self) -> None:
        if self.min_history < 2:
            raise ConfigurationError("min_history must be >= 2")
        if not 0 < self.warn_z <= self.crit_z:
            raise ConfigurationError("need 0 < warn_z <= crit_z")
        if not 0 < self.rel_warn <= self.rel_crit:
            raise ConfigurationError("need 0 < rel_warn <= rel_crit")


@dataclasses.dataclass(frozen=True)
class MetricTrend:
    """One metric's trajectory within one series, newest point judged."""

    series: str
    metric: str
    values: Tuple[float, ...]
    median: float
    mad: float
    latest: float
    deviation: float  # robust z when MAD > 0, else relative deviation
    status: str  # "new" | "short" | "ok" | "warn" | "drift"

    @property
    def gates(self) -> bool:
        return self.status in ("warn", "drift")


_MAD_Z = 0.6745  # makes the MAD-based z comparable to a Gaussian sigma


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _judge(
    values: Sequence[float], thresholds: DriftThresholds
) -> Tuple[float, float, float, str]:
    """(median, mad, deviation, status) for the newest value."""
    latest = values[-1]
    baseline = values[:-1]
    if not baseline:
        return latest, 0.0, 0.0, "new"
    med = _median(baseline)
    mad = _median([abs(v - med) for v in baseline])
    if mad > 0:
        deviation = _MAD_Z * abs(latest - med) / mad
        warn, crit = thresholds.warn_z, thresholds.crit_z
    else:
        scale = max(abs(med), 1e-300)
        deviation = abs(latest - med) / scale
        warn, crit = thresholds.rel_warn, thresholds.rel_crit
    if len(values) < thresholds.min_history:
        return med, mad, deviation, "short"
    if deviation >= crit:
        return med, mad, deviation, "drift"
    if deviation >= warn:
        return med, mad, deviation, "warn"
    return med, mad, deviation, "ok"


def compute_trends(
    entries: Sequence[RegistryEntry],
    thresholds: Optional[DriftThresholds] = None,
) -> List[MetricTrend]:
    """Per-series, per-metric trends over the registry, in stable order.

    The newest entry of each series is judged against the rolling
    median + MAD band of all prior entries that carry the metric.
    Metrics seen only in older entries (e.g. a health kind that stopped
    firing) are not judged — absence is not drift.
    """
    thresholds = thresholds or DriftThresholds()
    thresholds.validate()
    by_series: Dict[str, List[RegistryEntry]] = {}
    for entry in entries:
        by_series.setdefault(entry.series, []).append(entry)
    trends: List[MetricTrend] = []
    for series in sorted(by_series):
        history = by_series[series]
        latest_metrics = history[-1].metrics
        for metric in sorted(latest_metrics):
            values = tuple(
                e.metrics[metric] for e in history if metric in e.metrics
            )
            med, mad, deviation, status = _judge(values, thresholds)
            trends.append(
                MetricTrend(
                    series=series,
                    metric=metric,
                    values=values,
                    median=med,
                    mad=mad,
                    latest=values[-1],
                    deviation=deviation,
                    status=status,
                )
            )
    return trends


def worst_status(trends: Iterable[MetricTrend]) -> str:
    """``"drift"`` > ``"warn"`` > ``"ok"`` (new/short series count as ok)."""
    worst = "ok"
    for trend in trends:
        if trend.status == "drift":
            return "drift"
        if trend.status == "warn":
            worst = "warn"
    return worst


def trend_table(
    trends: Sequence[MetricTrend], title: str = "registry trends"
) -> ResultTable:
    table = ResultTable(
        title,
        columns=["series", "metric", "n", "median", "latest", "deviation", "status"],
    )
    for t in trends:
        table.add_row(
            series=t.series,
            metric=t.metric,
            n=len(t.values),
            median=f"{t.median:.6g}",
            latest=f"{t.latest:.6g}",
            deviation=f"{t.deviation:.3g}",
            status=t.status,
        )
    return table
