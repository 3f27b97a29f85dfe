"""Exit paths of the shared baseline gate (``benchmarks/_gate.py``),
driven with a stub measurement so no simulation runs."""

import importlib.util
import json
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "_gate",
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "_gate.py"),
)
_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_gate)

RECORD = {
    "schema": "stub/v1",
    "config": {"n": 1},
    "speedup": 5.0,
    "overhead": 1.02,
    "bytes": 64,
    "min_bytes": 64,
    "identical": True,
    "min_speedup": 4.0,
    "max_overhead": 1.05,
}

CHECKS = [
    ("true", "identical", None, "outputs diverged"),
    ("floor", "speedup", "min_speedup", "speedup {value:.1f}x under {limit:.1f}x"),
    ("ceiling", "overhead", "max_overhead", "overhead {value:.2f}x over {limit:.2f}x"),
    ("same", "bytes", None, "{key} changed: {value} vs baseline {limit}"),
    ("at_least", "bytes", "min_bytes", "only {value} bytes, expected {limit}"),
]


def run(path, *argv, record=RECORD):
    return _gate.run_gate(
        ["--baseline", str(path), *argv],
        description="stub gate",
        baseline_path="unused.json",
        measure=lambda: dict(record),
        report=lambda rec: print(f"speedup  : {rec['speedup']:.1f}x"),
        checks=CHECKS,
        passed="floor {min_speedup:.1f}x, ceiling {max_overhead:.2f}x, "
               "baseline {baseline[speedup]:.1f}x",
    )


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_stub.json"
    path.write_text(json.dumps(RECORD))
    return path


def test_pass_prints_report_and_scaled_limits(baseline, capsys):
    assert run(baseline) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "speedup  : 5.0x",
        "gate     : PASS (floor 4.0x, ceiling 1.05x, baseline 5.0x)",
    ]
    assert err == ""


def test_tolerance_loosens_floors_and_ceilings(baseline, capsys):
    slow = dict(RECORD, speedup=3.5, overhead=1.2)
    assert run(baseline, record=slow) == 1
    capsys.readouterr()
    assert run(baseline, "--tolerance", "0.2", record=slow) == 0
    assert "floor 3.2x, ceiling 1.26x" in capsys.readouterr().out


def test_perturbed_baseline_lists_every_regression(tmp_path, capsys):
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(dict(RECORD, min_speedup=100.0, bytes=65)))
    assert run(path, record=dict(RECORD, identical=False, min_bytes=70)) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.splitlines() == [
        "REGRESSION: outputs diverged",
        "REGRESSION: speedup 5.0x under 100.0x",
        "REGRESSION: bytes changed: 64 vs baseline 65",
        "REGRESSION: only 64 bytes, expected 70",
    ]


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "cannot read baseline"),
        ("{not json", "cannot read baseline"),
        (json.dumps(dict(RECORD, schema="other/v1")), "bad baseline schema 'other/v1'"),
        (json.dumps(dict(RECORD, config={"n": 2})), "baseline config does not match"),
        (json.dumps({k: v for k, v in RECORD.items() if k != "max_overhead"}),
         "baseline lacks the limit(s) ['max_overhead']"),
    ],
    ids=["missing", "unparseable", "schema", "config", "limit"],
)
def test_unusable_baseline_is_a_configuration_error(tmp_path, capsys, content, message):
    path = tmp_path / "baseline.json"
    if content is not None:
        path.write_text(content)
    assert run(path) == 2
    assert message in capsys.readouterr().err


def test_negative_tolerance_is_rejected_before_measuring(baseline, capsys):
    def measure():
        raise AssertionError("measured despite a bad tolerance")

    code = _gate.run_gate(
        ["--baseline", str(baseline), "--tolerance", "-1"],
        description="stub gate", baseline_path="unused.json", measure=measure,
        report=print, checks=CHECKS, passed="",
    )
    assert code == 2
    assert capsys.readouterr().err == "bench gate error: tolerance must be >= 0\n"


def test_update_baseline_round_trips(tmp_path, capsys):
    path = tmp_path / "fresh.json"
    assert run(path, "--update-baseline") == 0
    assert f"baseline : updated {path}" in capsys.readouterr().out
    assert json.loads(path.read_text()) == RECORD
    assert run(path) == 0


def test_tier2_hook_asserts_a_passing_gate():
    _gate.tier2_hook(lambda argv: 0)()
    with pytest.raises(AssertionError):
        _gate.tier2_hook(lambda argv: 1)()
