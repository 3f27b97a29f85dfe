"""Tests for the observability CLI: watch / history / ingest / dash."""

import json

import pytest

from repro.cli import main
from repro.observe.registry import load_registry


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestWatch:
    def test_clean_scenario_is_healthy(self, capsys):
        assert main(["watch", "--scenario", "clean", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "looks healthy" in out

    def test_straggler_scenario_warns(self, capsys):
        code, payload = run_json(
            capsys, ["watch", "--scenario", "straggler", "--json"]
        )
        assert code == 1
        assert payload["schema"] == "repro.cli.watch/v1"
        assert payload["worst"] == "warn"
        assert payload["health"]["counts"].get("straggler", 0) >= 1
        flagged = {e["rank"] for e in payload["health"]["events"]
                   if e["kind"] == "straggler"}
        assert 0 in flagged  # the injected straggler is rank 0

    def test_degrade_scenario_is_critical(self, capsys):
        code, payload = run_json(
            capsys, ["watch", "--scenario", "degrade", "--json"]
        )
        assert code == 2
        assert payload["worst"] == "crit"
        assert payload["health"]["counts"].get("ckpt_degraded", 0) >= 1

    def test_diverge_scenario_flags_loss(self, capsys):
        code, payload = run_json(
            capsys, ["watch", "--scenario", "diverge", "--json"]
        )
        assert code >= 1
        kinds = set(payload["health"]["counts"])
        assert kinds & {"loss_divergence", "loss_nan"}

    def test_live_lines_stream_without_json(self, capsys):
        assert main(["watch", "--scenario", "straggler"]) == 1
        out = capsys.readouterr().out
        assert "rank" in out and "!! WARN straggler" in out

    def test_record_and_registry_outputs(self, tmp_path, capsys):
        record = tmp_path / "run.json"
        registry = tmp_path / "reg.jsonl"
        code = main([
            "watch", "--scenario", "straggler", "--quiet",
            "--record", str(record), "--registry", str(registry),
        ])
        assert code == 1
        payload = json.loads(record.read_text())
        assert payload["schema"] == "repro.analysis.record/v5"
        assert payload["health"]["counts"].get("straggler", 0) >= 1
        entries = load_registry(str(registry))
        assert len(entries) == 1
        assert entries[0].metrics.get("health.straggler", 0) >= 1

    def test_bad_threshold_rejected(self, capsys):
        assert main(["watch", "--straggler-factor", "0.5"]) == 2

    def test_runs_are_deterministic(self, capsys):
        _, one = run_json(capsys, ["watch", "--scenario", "crash", "--json"])
        _, two = run_json(capsys, ["watch", "--scenario", "crash", "--json"])
        assert one == two


@pytest.fixture
def registry_5(tmp_path, capsys):
    """A registry holding five identical clean-watch runs."""
    path = tmp_path / "reg.jsonl"
    for _ in range(5):
        main(["watch", "--scenario", "clean", "--quiet",
              "--registry", str(path)])
    capsys.readouterr()
    return path


class TestHistory:
    def test_clean_registry_exits_zero(self, registry_5, capsys):
        assert main(["history", "--registry", str(registry_5)]) == 0
        out = capsys.readouterr().out
        assert "verdict : ok" in out

    def test_committed_registry_passes(self, capsys):
        assert main(["history", "--registry", "benchmarks/REGISTRY.jsonl"]) == 0
        assert "verdict : ok" in capsys.readouterr().out

    def test_missing_registry_exits_two(self, tmp_path, capsys):
        assert main(["history", "--registry",
                     str(tmp_path / "nope.jsonl")]) == 2

    def test_injected_drift_exits_two(self, registry_5, capsys):
        lines = registry_5.read_text().strip().splitlines()
        entry = json.loads(lines[-1])
        entry["metrics"]["makespan_s"] *= 1.5
        registry_5.write_text(
            "\n".join(lines[:-1] + [json.dumps(entry)]) + "\n"
        )
        assert main(["history", "--registry", str(registry_5)]) == 2
        err = capsys.readouterr().err
        assert "DRIFT" in err and "makespan_s" in err

    def test_json_output(self, registry_5, capsys):
        code, payload = run_json(
            capsys, ["history", "--registry", str(registry_5), "--json"]
        )
        assert code == 0
        assert payload["schema"] == "repro.cli.history/v1"
        assert payload["worst"] == "ok"
        assert any(t["metric"] == "makespan_s" for t in payload["trends"])

    def test_series_filter(self, registry_5, capsys):
        assert main(["history", "--registry", str(registry_5),
                     "--series", "no-such-series"]) == 2


class TestIngest:
    def test_bench_files_ingest(self, tmp_path, capsys):
        names = ("profile", "search", "simmpi")
        registry = tmp_path / "reg.jsonl"
        assert main(["ingest", *(f"benchmarks/BENCH_{n}.json" for n in names),
                     "--registry", str(registry)]) == 0
        entries = load_registry(str(registry))
        assert [e.series for e in entries] == [f"bench:{n}" for n in names]

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "mystery/v1"}')
        registry = tmp_path / "reg.jsonl"
        assert main(["ingest", str(bad), "--registry", str(registry)]) == 2
        assert load_registry(str(registry)) == []


class TestDash:
    def test_writes_selfcontained_html(self, registry_5, tmp_path, capsys):
        record = tmp_path / "run.json"
        main(["watch", "--scenario", "degrade", "--quiet",
              "--record", str(record)])
        out = tmp_path / "dash.html"
        assert main(["dash", "--registry", str(registry_5),
                     "--records", str(record),
                     "--out", str(out)]) == 0
        html = out.read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in html  # sparklines render inline
        assert "ckpt_degraded" in html  # health timeline marks
        assert "makespan_s" in html
        assert "http" not in html.split("</style>")[-1]  # no external assets

    def test_committed_registry_renders(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["dash", "--registry", "benchmarks/REGISTRY.jsonl",
                     "--out", str(out)]) == 0
        assert "bench:observe" in out.read_text()

    def test_missing_registry_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        out = tmp_path / "dash.html"
        assert main(["dash", "--registry", str(missing), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"registry {str(missing)!r} is missing\n"
        assert not out.exists()


class TestJsonSatellites:
    def test_faults_json(self, capsys):
        code, payload = run_json(capsys, ["faults", "--json"])
        assert code == 0
        assert payload["schema"] == "repro.cli.faults/v1"
        assert payload["recovered"] is True
        assert payload["plan"]["crashes"] == 1
        assert "dropped" in payload

    def test_chaos_json(self, capsys):
        code, payload = run_json(
            capsys, ["chaos", "--trials", "0", "--steps", "4", "--json"]
        )
        assert code == 0
        assert payload["verdict"]
        assert {t["trial"] for t in payload["trials"]} >= {"clean", "crash-1"}
        assert all("dropped" in t for t in payload["trials"])
