"""A small metrics registry: counters, gauges and histograms.

The registry is the aggregation side of telemetry: where the tracer
records *every* event, metrics keep cheap running aggregates — bytes
sent, message counts, fault/retry totals, virtual seconds per span kind
— that stay O(label cardinality) no matter how long a run is.  Wired as
the tracer's streaming sink (``SimEngine(..., metrics=registry)``) it
observes every :class:`~repro.simmpi.tracing.TraceEvent` as it happens,
including events the tracer does not store (``trace=False``).

All metrics support free-form labels::

    reg = MetricsRegistry()
    reg.counter("bytes_sent").inc(4096, rank=0, op="send")
    reg.gauge("clock").set(3.2e-4, rank=0)
    reg.to_table()          # ResultTable for repro.report.export
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError
from repro.telemetry.spans import base_name

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

LabelKey = Tuple[Tuple[str, Any], ...]


def _key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def _check_increment(counter: "Counter", value: float) -> None:
    if value < 0:
        raise ConfigurationError(
            f"counter {counter.name!r} cannot decrease by {value}"
        )


def _raise_to(series: Dict[LabelKey, Any], key: LabelKey, value: float) -> None:
    """Keep the larger of ``series[key]`` and ``value``; the caller holds the lock."""
    cur = series.get(key)
    if cur is None or value > cur:
        series[key] = value


class _Metric:
    """Shared plumbing: a name, a lock, and a labelled-series mapping."""

    kind = "metric"

    def __init__(self, name: str, description: str, lock: threading.Lock) -> None:
        self.name = name
        self.description = description
        self._lock = lock
        self._series: Dict[LabelKey, Any] = {}

    def series(self) -> Dict[LabelKey, Any]:
        """Snapshot of ``{labels: value}`` for this metric."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: Any) -> None:
        _check_increment(self, value)
        key = _key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_key(labels), 0)

    def total(self) -> float:
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A last-write-wins value per label set."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_key(labels)] = value

    def value(self, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._series.get(_key(labels))


DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram(_Metric):
    """Fixed-bucket histogram per label set (plus count/sum/min/max)."""

    kind = "histogram"
    buckets = DEFAULT_BUCKETS

    def _observe(self, key: LabelKey, value: float) -> None:
        """Fold ``value`` into the cell of ``key``; the caller holds the lock."""
        cell = self._series.get(key)
        if cell is None:
            cell = self._series[key] = {
                "count": 0,
                "sum": 0.0,
                "min": value,
                "max": value,
                "buckets": [0] * (len(self.buckets) + 1),
            }
        cell["count"] += 1
        cell["sum"] += value
        if value < cell["min"]:
            cell["min"] = value
        if value > cell["max"]:
            cell["max"] = value
        fills = cell["buckets"]
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                fills[i] += 1
                break
        else:
            fills[-1] += 1

    def stats(self, **labels: Any) -> Optional[Dict[str, Any]]:
        with self._lock:
            cell = self._series.get(_key(labels))
            return None if cell is None else dict(cell)


#: ``observe_event``'s metrics by the event branch that feeds them, in
#: creation order: ``branch -> ((class, name, description), ...)``.
_SINK_METRICS: Dict[str, Tuple[Tuple[type, str, str], ...]] = {
    "p2p": (
        (Counter, "comm.messages", "p2p messages"),
        (Counter, "comm.bytes", "p2p wire bytes"),
        (Counter, "comm.data_bytes", "p2p payload data bytes"),
    ),
    "recv": ((Histogram, "comm.recv_seconds", "virtual receive latency"),),
    "span": (
        (Counter, "span.count", "spans closed"),
        (Counter, "span.seconds", "virtual seconds inside spans"),
    ),
    "fault": ((Counter, "faults.events", "fault-subsystem events"),),
    "hb": ((Counter, "hb.count", "heartbeats emitted"),),
    "hb.step": ((Gauge, "hb.step", "latest heartbeat step"),),
    "hb.loss": ((Gauge, "hb.loss", "latest heartbeat loss"),),
    "coll": ((Counter, "coll.calls", "collective entries"),),
    "clock": ((Gauge, "clock.seconds", "per-rank virtual clock"),),
}


def _series_key(
    cache: Dict[str, Dict[Any, Dict[int, LabelKey]]], label: str, value: Any, rank: int
) -> LabelKey:
    """The key of the series ``{label: value, "rank": rank}``, built once.

    Handing the series dicts the key object they already hold lets every
    look-up match on identity instead of comparing nested tuples (about
    a quarter of ``observe_event``'s time per event).
    """
    try:
        return cache[label][value][rank]
    except KeyError:
        by_rank = cache.setdefault(label, {}).setdefault(value, {})
        key = by_rank[rank] = _key({label: value, "rank": rank})
        return key


class MetricsRegistry:
    """Creates and owns metrics; doubles as a tracer event sink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        # observe_event's handles on its standard metrics, by branch,
        # and the label keys it has built: label -> value -> rank -> key.
        self._sink: Dict[str, Tuple[_Metric, ...]] = {}
        self._keys: Dict[str, Dict[Any, Dict[int, LabelKey]]] = {}
        self._rank_keys: Dict[int, LabelKey] = {}

    # -- metric construction (idempotent by name) ---------------------------

    def _get(self, cls, name: str, description: str) -> Any:
        with self._lock:
            return self._get_locked(cls, name, description)

    def _get_locked(self, cls, name: str, description: str) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description, self._lock)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get(Gauge, name, description)

    def metrics(self) -> Tuple[_Metric, ...]:
        with self._lock:
            return tuple(self._metrics.values())

    # -- the standard trace-event sink --------------------------------------

    def _bind(self, branch: str) -> Tuple[_Metric, ...]:
        """Create one sink branch's metrics; the caller holds the lock."""
        metrics = self._sink[branch] = tuple(
            self._get_locked(cls, name, description)
            for cls, name, description in _SINK_METRICS[branch]
        )
        return metrics

    def observe_event(self, event: Any) -> None:
        """Update the standard communication metrics from one trace event.

        Accepts any :class:`~repro.simmpi.tracing.TraceEvent`; suitable
        for ``Tracer(sink=registry.observe_event)`` (which is what
        ``SimEngine(metrics=registry)`` wires up).

        This runs once per recorded event, so it takes the registry
        lock once and writes the series of its own metrics
        (:data:`_SINK_METRICS`, created on a branch's first event)
        directly: counters add, gauges keep the latest value (the
        clock and heartbeat-step gauges their maximum), and the receive
        latency histogram folds in each sample.
        """
        op = event.op
        rank = event.rank
        with self._lock:
            sink = self._sink
            keys = self._keys
            by_rank = self._rank_keys.get(rank)
            if by_rank is None:
                by_rank = self._rank_keys[rank] = (("rank", rank),)
            if op == "send" or op == "recv":
                messages, wire, data = sink.get("p2p") or self._bind("p2p")
                nbytes = event.nbytes
                data_bytes = event.data_bytes
                _check_increment(wire, nbytes)
                _check_increment(data, data_bytes)
                key = _series_key(keys, "op", op, rank)
                series = messages._series
                series[key] = series.get(key, 0) + 1
                series = wire._series
                series[key] = series.get(key, 0) + nbytes
                series = data._series
                series[key] = series.get(key, 0) + data_bytes
                if op == "recv":
                    (latency,) = sink.get("recv") or self._bind("recv")
                    latency._observe(by_rank, event.t_end - event.t_start)
            elif op == "span":
                count, seconds = sink.get("span") or self._bind("span")
                elapsed = event.t_end - event.t_start
                _check_increment(seconds, elapsed)
                path = event.span
                name = base_name(path[-1]) if path else "?"
                key = _series_key(keys, "span", name, rank)
                series = count._series
                series[key] = series.get(key, 0) + 1
                series = seconds._series
                series[key] = series.get(key, 0) + elapsed
            elif op.startswith("fault."):
                (faults,) = sink.get("fault") or self._bind("fault")
                key = _series_key(keys, "kind", op[len("fault."):], rank)
                series = faults._series
                series[key] = series.get(key, 0) + 1
            elif op == "hb":
                fields = dict(event.tag)
                (beats,) = sink.get("hb") or self._bind("hb")
                series = beats._series
                series[by_rank] = series.get(by_rank, 0) + 1
                step = fields.get("step")
                if step is not None:
                    (latest,) = sink.get("hb.step") or self._bind("hb.step")
                    _raise_to(latest._series, by_rank, step)
                loss = fields.get("loss")
                if loss is not None:
                    (latest,) = sink.get("hb.loss") or self._bind("hb.loss")
                    latest._series[by_rank] = loss
            else:  # collective entry markers ("allreduce[ring]", ...)
                (calls,) = sink.get("coll") or self._bind("coll")
                key = _series_key(keys, "op", op, rank)
                series = calls._series
                series[key] = series.get(key, 0) + 1
            (clock,) = sink.get("clock") or self._bind("clock")
            _raise_to(clock._series, by_rank, event.t_end)

    # -- export --------------------------------------------------------------

    def to_rows(self) -> List[Dict[str, Any]]:
        """Flatten every labelled series into export-friendly dicts."""
        rows: List[Dict[str, Any]] = []
        for metric in self.metrics():
            for key, value in sorted(metric.series().items(), key=lambda kv: str(kv[0])):
                row: Dict[str, Any] = {
                    "metric": metric.name,
                    "type": metric.kind,
                    "labels": ",".join(f"{k}={v}" for k, v in key),
                }
                if metric.kind == "histogram":
                    row.update(
                        count=value["count"],
                        value=value["sum"],
                        min=value["min"],
                        max=value["max"],
                    )
                else:
                    row["value"] = value
                rows.append(row)
        return rows

    def to_table(self, title: str = "metrics") -> ResultTable:
        table = ResultTable(title, columns=["metric", "type", "labels", "value"])
        table.extend(self.to_rows())
        return table

