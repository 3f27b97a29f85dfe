"""Tests for the Chrome trace_event exporter (satellite: schema validation)."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.chrome import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.spans import span


def _traced_events(p=2):
    def prog(comm):
        with span("work", comm=comm, step=0):
            return comm.allreduce(np.ones(8), algorithm="ring")

    eng = SimEngine(p, trace=True)
    eng.run(prog)
    return eng.tracer.events


@pytest.fixture(scope="module")
def events():
    return _traced_events()


class TestSchema:
    def test_validates_and_counts(self, events):
        obj = chrome_trace(events)
        n = validate_chrome_trace(obj)
        assert n == len(obj["traceEvents"]) > 0

    def test_required_keys_present(self, events):
        for ev in chrome_trace(events)["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
                assert ev["ts"] >= 0.0

    def test_one_track_per_rank(self, events):
        obj = chrome_trace(events)
        for ev in obj["traceEvents"]:
            assert ev["pid"] == ev["tid"]
        # Metadata names both ranks' tracks.
        meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        named = {e["pid"] for e in meta if e["name"] == "process_name"}
        assert named == {0, 1}

    def test_timestamps_consistent_with_virtual_clock(self, events):
        obj = chrome_trace(events)
        spans = [e for e in obj["traceEvents"] if e.get("cat") == "span"]
        assert spans
        t_max_us = max(e.t_end for e in events) * 1e6
        for ev in spans:
            assert 0.0 <= ev["ts"] <= ev["ts"] + ev["dur"] <= t_max_us + 1e-9

    def test_json_roundtrip(self, events):
        obj = chrome_trace(events)
        clone = json.loads(json.dumps(obj))
        assert validate_chrome_trace(clone) == len(obj["traceEvents"])
        assert clone["displayTimeUnit"] == "ms"


class TestValidatorRejects:
    def test_not_a_dict(self):
        with pytest.raises(ConfigurationError):
            validate_chrome_trace([])

    def test_missing_keys(self):
        with pytest.raises(ConfigurationError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})

    def test_bad_phase(self):
        ev = {"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0.0}
        with pytest.raises(ConfigurationError):
            validate_chrome_trace({"traceEvents": [ev]})

    def test_pid_tid_disagree(self):
        ev = {"name": "x", "ph": "i", "pid": 0, "tid": 1, "ts": 0.0, "s": "t"}
        with pytest.raises(ConfigurationError):
            validate_chrome_trace({"traceEvents": [ev]})

    def test_negative_ts(self):
        ev = {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1.0, "dur": 0.0}
        with pytest.raises(ConfigurationError):
            validate_chrome_trace({"traceEvents": [ev]})


    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("key", ["ts", "dur"])
    def test_non_finite_ts_and_dur(self, key, bad):
        ev = {"name": "x", "ph": "X", "pid": 3, "tid": 3, "ts": 0.0, "dur": 0.0}
        ev[key] = bad
        with pytest.raises(ConfigurationError, match=rf"event 0 \('x' on rank 3\).*{key}"):
            validate_chrome_trace({"traceEvents": [ev]})


class TestWrite:
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    def test_non_finite_time_is_refused_not_written(self, tmp_path, field, bad):
        """``Infinity``/``NaN`` are not JSON: strict parsers refuse the file."""
        times = {"t_start": 0.0, "t_end": 1.0, field: bad}
        events = [
            TraceEvent(0, "send", 1, 8, 0.0, 1.0, (1,)),
            TraceEvent(0, "send", 1, 8, times["t_start"], times["t_end"], (2,)),
        ]
        key = "ts" if field == "t_start" else "dur"
        with pytest.raises(ConfigurationError, match=rf"'send' on rank 0.*invalid {key}"):
            write_chrome_trace(events, str(tmp_path / "trace.json"))

    def test_non_finite_span_attribute_is_refused(self, tmp_path):
        events = [TraceEvent(0, "span", -1, 0, 0.0, 1.0, (), 0, ("step[loss=nan]",))]
        with pytest.raises(ConfigurationError, match="non-finite"):
            write_chrome_trace(events, str(tmp_path / "trace.json"))

    def test_file_is_the_json_dump_of_the_object(self, tmp_path, events):
        """Chunked encoding writes the bytes ``json.dump`` would."""
        path = tmp_path / "trace.json"
        obj = write_chrome_trace(list(events) * 700, str(path), title="t")
        assert len(obj["traceEvents"]) > 2048  # several chunks
        assert path.read_text(encoding="utf-8") == json.dumps(obj)
        empty = write_chrome_trace([], str(path))
        assert path.read_text(encoding="utf-8") == json.dumps(empty)

    def test_write_never_holds_the_whole_document(self, tmp_path):
        """The writer's own peak stays under a quarter of the file size.

        ``fh.write(json.dumps(obj))`` is as fast as chunking but holds a
        second copy of the trace as one string — measured +11 % peak RSS
        on the benchmark's traced workload.
        """
        events = [
            TraceEvent(i % 16, "send", (i + 1) % 16, 512, i * 1e-6, (i + 0.5) * 1e-6,
                       (7_000_000 + i % 9,), 512, ("step[step=0]", "fwd[layer=1]"))
            for i in range(20_000)
        ]
        path = str(tmp_path / "trace.json")
        obj = chrome_trace(events)
        seen = {}

        def fake_chrome_trace(_events, *, title):
            # Measure from here: the object is built, only the write follows.
            tracemalloc.start()
            seen["base"] = tracemalloc.get_traced_memory()[0]
            return obj

        import repro.telemetry.chrome as chrome

        real, chrome.chrome_trace = chrome.chrome_trace, fake_chrome_trace
        try:
            write_chrome_trace(events, path)
            peak = tracemalloc.get_traced_memory()[1] - seen["base"]
        finally:
            chrome.chrome_trace = real
            tracemalloc.stop()
        size = os.path.getsize(path)
        assert len(obj["traceEvents"]) >= 20_000
        assert peak < size / 4, (peak, size)

    def test_write_creates_dirs_and_loadable_file(self, tmp_path, events):
        path = tmp_path / "nested" / "trace.json"
        obj = write_chrome_trace(events, str(path), title="t")
        assert path.exists()
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded == json.loads(json.dumps(obj))
        assert validate_chrome_trace(loaded) > 0
