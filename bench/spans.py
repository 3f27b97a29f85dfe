"""Benchmark-side spans: one per call into a layer of ``repro``.

Spans are recorded from the benchmark's own files, around the calls the
workloads make; nothing inside ``repro`` is instrumented.  They stay in
memory until the traced pass ends.  A span's *self time* is its duration
minus the part its child spans cover, so the self times of one
iteration's spans add up to that iteration's wall time.
"""

from __future__ import annotations

import contextlib
import threading
import time


def no_span(name):
    """The span factory of an untraced iteration: records nothing."""
    return contextlib.nullcontext()


class SpanRecorder:
    """Nested wall-clock spans; ``op`` ties a span to its iteration."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start_s": time.perf_counter(),
            "end_s": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """``{span id: seconds}`` with every child's duration taken out."""
        out = {s["id"]: s["end_s"] - s["start_s"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_s"] - s["start_s"]
        return out

    def self_time_by_name(self, op):
        """Self seconds per span name within iteration ``op``."""
        self_s = self.self_times()
        totals = {}
        for s in self.spans:
            if s["op"] == op:
                totals[s["name"]] = totals.get(s["name"], 0.0) + self_s[s["id"]]
        return totals


class ThreadWatch:
    """Samples ``threading.active_count()`` while a traced iteration runs.

    The peak excludes the watcher itself; the main thread and the counting
    session's sampler are in it, so a program that starts no threads reads
    2.  Rank threads live as long as their engine run, so a slow poll
    finds them; a 2 ms poll cost cnn_domain_p16 4 % of its wall.
    """

    def __init__(self, interval_s=0.02):
        self.interval_s = interval_s
        self.peak = threading.active_count()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval_s):
            self.peak = max(self.peak, threading.active_count() - 1)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
