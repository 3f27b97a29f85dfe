"""Tests for the metrics registry and its tracer-sink wiring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent, Tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import span


class TestCounter:
    def test_inc_and_value_per_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        c.inc(10, rank=0)
        c.inc(5, rank=0)
        c.inc(7, rank=1)
        assert c.value(rank=0) == 15
        assert c.value(rank=1) == 7
        assert c.total() == 22

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1)

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")


class TestGauge:
    def test_set_is_last_write_wins(self):
        g = MetricsRegistry().gauge("clock")
        g.set(1.0, rank=0)
        g.set(0.5, rank=0)
        assert g.value(rank=0) == 0.5
        assert g.value(rank=9) is None


class TestHistogram:
    def test_observe_tracks_stats_and_buckets(self):
        reg = MetricsRegistry()
        for v in (0.5, 5.0, 50.0):
            reg.observe_event(TraceEvent(0, "recv", 1, 8, 0.0, v))
        (h,) = [m for m in reg.metrics() if m.name == "comm.recv_seconds"]
        stats = h.stats(rank=0)
        assert stats["count"] == 3
        assert stats["sum"] == 55.5
        assert stats["min"] == 0.5 and stats["max"] == 50.0
        # <=1e-6 ... <=1.0 empty, then <=10, then overflow.
        assert stats["buckets"] == [0] * 6 + [1, 1, 1]


def _chatter(comm):
    with span("work", comm=comm):
        return comm.allreduce(np.ones(8), algorithm="ring")


class TestEngineSink:
    def test_engine_feeds_registry(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_chatter)
        msgs = reg.counter("comm.messages")
        # Ring allreduce on 2 ranks: 2(p-1) = 2 sends per rank.
        assert msgs.value(rank=0, op="send") == 2
        assert msgs.value(rank=1, op="send") == 2
        assert reg.counter("comm.data_bytes").value(rank=0, op="send") > 0
        assert reg.counter("span.count").value(rank=0, span="work") == 1
        assert reg.counter("coll.calls").total() == 2  # one marker per rank
        assert reg.gauge("clock.seconds").value(rank=0) > 0

    def test_metrics_without_trace_stores_no_events(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_chatter)
        assert eng.tracer.events == ()  # sink-only: constant memory
        assert reg.counter("comm.messages").total() > 0

    def test_to_table_flattens_series(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_chatter)
        table = reg.to_table()
        assert len(table) > 0
        metrics = set(table.column("metric"))
        assert "comm.messages" in metrics and "clock.seconds" in metrics


class TestTracerScalability:
    def test_store_false_keeps_nothing(self):
        seen = []
        tr = Tracer(enabled=True, sink=seen.append, store=False)
        tr.record(TraceEvent(0, "send", 1, 8, 0.0, 0.0))
        assert tr.events == ()
        assert len(seen) == 1


def _nested_chatter(comm):
    with span("outer", comm=comm):
        comm.allreduce(np.ones(4), algorithm="ring")
        with span("inner", comm=comm):
            comm.allreduce(np.ones(4), algorithm="ring")
    with span("outer", comm=comm):
        pass
    return comm.rank


class TestStreamingSinkOrdering:
    def test_interleaved_spans_stream_consistently(self):
        """Per-rank event order through the sink matches the stored trace."""
        per_rank = {}

        class Recorder:
            def observe_event(self, event):
                per_rank.setdefault(event.rank, []).append(event)

        eng = SimEngine(2, trace=True, metrics=Recorder())
        eng.run(_nested_chatter)
        stored = eng.tracer.canonical()
        for rank, streamed in per_rank.items():
            kept = [e for e in stored if e.rank == rank]
            assert streamed == kept

    def test_span_counts_survive_interleaving(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_nested_chatter)
        # Each rank opens "outer" twice and "inner" once; spans are
        # labeled by their leaf name.
        assert reg.counter("span.count").value(rank=0, span="outer") == 2
        assert reg.counter("span.count").value(rank=0, span="inner") == 1
        assert reg.counter("span.count").value(rank=1, span="outer") == 2

    def test_heartbeats_feed_hb_metrics_not_coll_calls(self):
        from repro.simmpi.tracing import TraceEvent as TE

        reg = MetricsRegistry()
        before = reg.counter("coll.calls").total()
        reg.observe_event(TE(
            rank=1, op="hb", peer=-1, nbytes=0, t_start=1e-6, t_end=1e-6,
            tag=(("loss", 0.25), ("phase", "train"), ("step", 4)),
        ))
        assert reg.counter("hb.count").value(rank=1) == 1
        assert reg.gauge("hb.step").value(rank=1) == 4
        assert reg.gauge("hb.loss").value(rank=1) == 0.25
        assert reg.counter("coll.calls").total() == before
