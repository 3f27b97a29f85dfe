"""Self-test of the benchmark harness (about a minute, ``--quick`` sizes).

    python3 bench/selftest.py

Checks that the harness keeps its own promises: the names it emits are
exactly those ``BENCHMARK.json`` lists, a wrong golden is counted as a
failed operation, spans nest with non-negative self times, and the
comparison gives the verdicts its rules say.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from compare import summarize, verdict  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_names(spec):
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    for name in names:
        assert NAME.match(name), f"bad name {name!r}"
    assert len(set(names)) == len(names), "a name is used twice"


def check_emitted(spec):
    """Every workload, untraced: exactly the end-to-end metrics; one
    workload, traced: exactly the per-layer metrics."""
    for workload in (w["name"] for w in spec["workloads"]):
        result = run.run_workload(
            workload, spec, seed=0, seconds=run.QUICK_SECONDS, trace=0, quick=True
        )
        line = run.contract_line(result, spec, trace=0)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}, workload
        assert line["correct"] and line["attempted"] >= 1, (workload, result["errors"])
        assert all(m["value"] > 0 for m in line["metrics"].values()), workload
    traced = run.run_workload(
        "mlp15d_p64_traced", spec, seed=0, seconds=run.QUICK_SECONDS, trace=1, quick=True
    )
    line = run.contract_line(traced, spec, trace=1)
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert line["correct"], traced["errors"]
    return traced


def check_wrong_golden():
    """A golden that disagrees fails every operation; another seed is
    not compared with the golden at all."""
    with open(run.GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["quick"]["strategy_sweep"]["digest"]["cache_misses"] += 1
    wrong = os.path.join(run.OUT_DIR, "golden-wrong.json")
    run.write_json(golden, wrong)
    kwargs = dict(seconds=run.QUICK_SECONDS, trace=0, quick=True, golden=wrong)
    child = run.run_child("strategy_sweep", seed=0, **kwargs)
    assert child["failed_ops"] == child["ops"] > 0, child
    assert any("golden" in e for e in child["errors"]), child["errors"]
    child = run.run_child("strategy_sweep", seed=1, **kwargs)
    assert child["failed_ops"] == 0, child["errors"]


def check_spans(spans):
    """Children lie inside their parents and no self time is negative."""
    by_id = {s["id"]: s for s in spans}
    self_s = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    for s in spans:
        assert s["end_s"] >= s["start_s"], s
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_s"] <= s["start_s"] and s["end_s"] <= parent["end_s"], s
            assert parent["op"] == s["op"], s
            self_s[s["parent"]] -= s["end_s"] - s["start_s"]
    assert all(v >= -1e-9 for v in self_s.values()), self_s


def check_recorder():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    check_spans(recorder.spans)
    by_name = recorder.self_time_by_name(0)
    total = recorder.spans[0]["end_s"] - recorder.spans[0]["start_s"]
    assert abs(by_name["outer"] + by_name["inner"] - total) < 1e-9


def check_verdicts():
    def tight(centre):
        return summarize([centre * f for f in (0.99, 1.0, 1.01)], "s")

    wide = summarize([0.5, 1.0, 1.5], "s")
    assert verdict(tight(1.0), tight(1.02), 0.10)[1] == "unchanged"
    assert verdict(tight(1.0), tight(1.20), 0.10)[1] == "regressed"
    assert verdict(tight(1.0), tight(0.80), 0.10)[1] == "improved"
    assert verdict(wide, tight(1.05), 0.10)[1] == "unresolved"
    assert verdict(wide, tight(0.30), 0.10)[1] == "improved"


def main():
    spec = run.load_spec()
    check_names(spec)
    check_recorder()
    check_verdicts()
    check_wrong_golden()
    traced = check_emitted(spec)
    check_spans(traced["spans"])
    assert {"train", "check"} <= {s["name"] for s in traced["spans"]}
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
