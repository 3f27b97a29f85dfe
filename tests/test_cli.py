"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("table1", "fig4", "fig6", "fig10", "eq5"):
            assert key in out


class TestSummary:
    def test_summary_prints_setting(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "fc8" in out
        assert "Cori" in out and "ImageNet" in out


class TestRun:
    def test_run_prints_report(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "=== table1" in out

    def test_run_quiet_suppresses_stdout(self, capsys):
        assert main(["run", "table1", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_with_export(self, tmp_path, capsys):
        assert main(["run", "eq5", "--quiet", "--out", str(tmp_path)]) == 0
        files = os.listdir(tmp_path)
        assert "eq5.csv" in files and "eq5.json" in files
        assert "eq5_report.txt" in files

    def test_unknown_experiment_raises(self, capsys):
        """The lookup raises ConfigurationError; main() turns it into
        exit 2 with a one-line message."""
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: unknown experiment 'fig99'")
        assert err.count("\n") == 1


class TestBest:
    def test_best_prints_strategy(self, capsys):
        assert main(["best", "-B", "2048", "-P", "64"]) == 0
        out = capsys.readouterr().out
        assert "best    :" in out
        assert "per-layer placements:" in out
        assert "conv1" in out and "fc8" in out

    def test_best_beyond_batch_limit_uses_splits(self, capsys):
        assert main(["best", "-B", "64", "-P", "128"]) == 0
        out = capsys.readouterr().out
        # No pure-batch layers are feasible at P > B.
        placements = out.split("per-layer placements:")[1]
        assert "batch" not in placements

    def test_best_memory_cap_respected(self, capsys):
        assert main(["best", "-B", "2048", "-P", "512", "--max-memory-mb", "150"]) == 0
        out = capsys.readouterr().out
        mb = float(out.split("memory/process: ")[1].split(" MB")[0])
        assert mb <= 150

    def test_best_other_networks(self, capsys):
        assert main(["best", "-B", "256", "-P", "32", "--network", "mlp"]) == 0
        out = capsys.readouterr().out
        assert "MLP" in out

    def test_best_requires_batch_and_processes(self):
        with pytest.raises(SystemExit):
            main(["best", "-B", "256"])

    def test_best_plan_prints_schedule(self, capsys):
        assert main(["best", "-B", "2048", "-P", "64", "--plan"]) == 0
        out = capsys.readouterr().out
        assert "Iteration plan" in out
        assert "allreduce(dW)" in out
        assert "blocking (critical-path) communication" in out

    def test_best_cache_stats_line(self, capsys):
        assert main(["best", "-B", "2048", "-P", "64", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "cache   :" in out and "hit rate" in out


class TestBench:
    """``benchmarks/bench_search.py``: the search engine's speedup gate."""

    @pytest.fixture(scope="class")
    def bench(self):
        import importlib.util
        import sys

        sys.path.insert(0, BENCHMARKS)  # the script imports _gate
        try:
            spec = importlib.util.spec_from_file_location(
                "bench_search", os.path.join(BENCHMARKS, "bench_search.py")
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(BENCHMARKS)
        return module

    def test_bench_committed_baseline_config_matches_defaults(self, bench, capsys):
        assert bench.main([]) == 0
        out = capsys.readouterr().out
        assert "P=[8, 64, 256, 512]" in out and "bit-identical" in out
        assert "cache   : 71 hits / 125 misses" in out
        assert "gate    : PASS (floor 3.00x" in out

    def test_bench_update_baseline_then_gate_passes(self, bench, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert bench.main(["--baseline", str(baseline), "--update-baseline"]) == 0
        assert "baseline: updated" in capsys.readouterr().out
        assert bench.main(["--baseline", str(baseline)]) == 0
        assert "gate    : PASS" in capsys.readouterr().out

    def test_bench_regression_exits_1(self, bench, tmp_path, capsys):
        import json

        payload = json.loads(open(bench.BASELINE_PATH).read())
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(dict(payload, floor_speedup=1000.0)))
        assert bench.main(["--baseline", str(baseline)]) == 1
        assert "below the 1000.00x floor" in capsys.readouterr().err

    def test_bench_config_mismatch_exits_2(self, bench, tmp_path, capsys):
        import json

        payload = json.loads(open(bench.BASELINE_PATH).read())
        payload["config"] = dict(payload["config"], processes=[4])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        assert bench.main(["--baseline", str(baseline)]) == 2
        assert "config does not match" in capsys.readouterr().err

    def test_bench_missing_baseline_exits_2(self, bench, tmp_path, capsys):
        assert bench.main(["--baseline", str(tmp_path / "nope.json")]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_bench_corrupt_baseline_exits_2(self, bench, tmp_path, capsys):
        baseline = tmp_path / "bad.json"
        baseline.write_text("{not json")
        assert bench.main(["--baseline", str(baseline)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestTrace:
    def test_trace_audit_is_exact(self, capsys):
        assert main(["trace", "--assert-exact"]) == 0
        out = capsys.readouterr().out
        assert "per-span summary" in out
        assert "communication audit" in out
        assert "-> EXACT" in out

    def test_trace_fig7_exports_chrome_trace(self, tmp_path, capsys):
        assert (
            main(
                [
                    "trace", "--experiment", "fig7", "--pr", "4", "--pc", "2",
                    "--out", str(tmp_path), "--assert-exact",
                ]
            )
            == 0
        )
        files = os.listdir(tmp_path)
        for name in ("trace.json", "audit.csv", "metrics.json", "spans.txt"):
            assert name in files
        import json

        from repro.telemetry.chrome import validate_chrome_trace

        with open(tmp_path / "trace.json", "r", encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) > 0

    def test_trace_per_rank_summary(self, capsys):
        assert main(["trace", "--per-rank"]) == 0
        assert "rank" in capsys.readouterr().out

    def test_trace_bad_config_fails_cleanly(self, capsys):
        # steps = 0 gives the audit nothing to compare; argparse exits 2.
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--steps", "0"])
        assert exc.value.code == 2
        assert "argument --steps: must be >= 1, got 0" in capsys.readouterr().err

    def test_trace_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["trace", "--experiment", "nope"])

    def test_trace_prints_analysis(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "per-rank virtual-time accounting" in out
        assert "critical path:" in out
        assert "critical:" in out and "idle fraction" in out

    def test_trace_traffic_heatmap(self, capsys):
        assert main(["trace", "--traffic"]) == 0
        out = capsys.readouterr().out
        assert "traffic matrix" in out
        assert "src\\dst" in out

    def test_trace_record_round_trips(self, tmp_path, capsys):
        from repro.analysis import read_run_record

        path = tmp_path / "run.json"
        assert main(["trace", "--record", str(path)]) == 0
        assert "record  : wrote" in capsys.readouterr().out
        record = read_run_record(str(path))
        assert record.trainer == "train"
        assert record.meta["experiment"] == "mlp"

    def test_trace_exports_analysis_tables(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path)]) == 0
        files = os.listdir(tmp_path)
        assert "accounting.csv" in files
        assert "critical_path.csv" in files

    def test_trace_metrics_include_analysis_counters(self, tmp_path, capsys):
        import json

        assert main(["trace", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "metrics.json", "r", encoding="utf-8") as fh:
            names = {row["metric"] for row in json.load(fh)["rows"]}
        assert {
            "analysis.dag_nodes", "analysis.dag_edges",
            "analysis.critical_events", "analysis.critical_seconds",
            "analysis.idle_fraction", "analysis.imbalance",
        } <= names


class TestDiff:
    def _write_record(self, path, machine=None):
        import dataclasses

        import numpy as np

        from repro.analysis import write_run_record
        from repro.dist.train import (
            MLPParams,
            distributed_mlp_train,
            mlp_run_record,
        )
        from repro.machine.params import cori_knl
        from repro.simmpi.engine import SimEngine

        dims = (12, 9, 5)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((dims[0], 32))
        y = rng.integers(0, dims[-1], 32)
        if machine == "derated":
            m = cori_knl()
            machine = dataclasses.replace(
                m, alpha=m.alpha * 4, beta_per_byte=m.beta_per_byte * 2
            )
        engine = SimEngine(4, machine, trace=True)
        _, _, sim = distributed_mlp_train(
            MLPParams.init(dims, seed=0), x, y,
            pr=2, pc=2, batch=8, steps=2, engine=engine,
        )
        write_run_record(
            mlp_run_record(engine, sim, dims=dims, pr=2, pc=2, batch=8, steps=2),
            str(path),
        )

    def test_identical_records_exit_0(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_record(a)
        self._write_record(b)
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s) -> clean" in out
        assert "gate    : PASS" in out

    def test_derated_machine_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_record(a)
        self._write_record(b, machine="derated")
        assert main(["diff", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "REGRESSION: makespan" in captured.err
        assert "span-time" in captured.err

    def test_loose_tolerance_tolerates_derating(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_record(a)
        self._write_record(b, machine="derated")
        assert main(["diff", str(a), str(b), "--time-tol", "50"]) == 0

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        b = tmp_path / "b.json"
        self._write_record(b)
        assert main(["diff", str(tmp_path / "nope.json"), str(b)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_corrupt_current_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._write_record(a)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["diff", str(a), str(bad)]) == 2
        assert "cannot read current" in capsys.readouterr().err

    def test_fresh_faults_record_matches_committed_baseline(self, tmp_path, capsys):
        current = tmp_path / "run.json"
        assert main(["faults", "--steps", "6", "--record", str(current)]) == 0
        baseline = os.path.join(BENCHMARKS, "RECORD_baseline.json")
        exact = ["--time-tol", "0", "--bytes-tol", "0", "--msgs-tol", "0"]
        assert main(["diff", baseline, str(current), *exact]) == 0
        assert "gate    : PASS" in capsys.readouterr().out

    def test_perturbed_record_exits_1(self, tmp_path, capsys):
        """The CI failure mode: a hand-perturbed record must fail the gate."""
        import json

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_record(a)
        payload = json.loads(a.read_text())
        payload["makespan_s"] *= 1.5
        payload["critical"]["length_s"] = payload["makespan_s"]
        for row in payload["ranks"]:
            row["compute_s"] += payload["makespan_s"] - row["wall_s"]
            row["wall_s"] = payload["makespan_s"]
        b.write_text(json.dumps(payload))
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestProfile:
    def test_profile_json_record_and_flamegraph(self, tmp_path, capsys):
        import json

        out, record = tmp_path / "artifacts", tmp_path / "run.json"
        argv = ["profile", "-P", "4", "--steps", "1", "--json",
                "--out", str(out), "--record", str(record)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attribution_ok"] and "engine" not in payload
        assert payload["report"]["counters"]["msgs_sent"] > 0
        run = json.loads(record.read_text())
        assert run["schema"] == "repro.analysis.record/v5"
        assert run["host"]["samples"] >= 0
        doc = (out / "flamegraph.html").read_text()
        assert doc.startswith("<!doctype html>") and "<script" not in doc

    def test_profile_summa_reports_its_one_product(self, capsys):
        # SUMMA runs one product whatever --steps says: the header and
        # --json report that product, not the --steps asked for.
        import json

        sent = []
        for steps in ("1", "7"):
            assert main(["profile", "--trainer", "summa", "-P", "4",
                         "--steps", steps, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["steps"] == 1
            sent.append(payload["report"]["counters"]["msgs_sent"])
        assert sent == [8, 8]
        assert main(["profile", "--trainer", "summa", "-P", "4", "--steps", "7"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "one product" in header and "step" not in header

    def test_profile_elastic_replicates_where_no_stripe_fits(self, tmp_path, capsys):
        # An erasure stripe needs Pc > parity (1): a one-column grid
        # checkpoints by replication, and its record says so.
        import json

        record = tmp_path / "run.json"
        assert main(["profile", "--trainer", "elastic", "--pr", "2", "--pc", "1",
                     "--steps", "1", "--json", "--record", str(record)]) == 0
        assert json.loads(record.read_text())["config"]["ckpt_mode"] == "replicate"
        assert main(["profile", "--trainer", "elastic", "-P", "1", "--steps", "1",
                     "--json"]) == 0
        capsys.readouterr()

    def test_one_rank_runs_record_an_empty_critical_path(self, tmp_path, capsys):
        # A one-rank trace has no p2p events: no message bounds the run,
        # so the critical path is empty and spans the whole makespan.
        import json

        traced, profiled = tmp_path / "trace.json", tmp_path / "profile.json"
        assert main(["trace", "--pr", "1", "--pc", "1", "--steps", "1",
                     "--record", str(traced)]) == 0
        assert main(["profile", "-P", "1", "--steps", "1", "--json",
                     "--record", str(profiled)]) == 0
        capsys.readouterr()
        for path in (traced, profiled):
            record = json.loads(path.read_text())
            critical = record["critical"]
            assert critical["events"] == 0
            assert critical["length_s"] == critical["makespan_s"] == record["makespan_s"]

    def test_profile_bad_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--pr", "0"])
        assert exc.value.code == 2
        assert "profile" in capsys.readouterr().err


#: Bad input the commands reject before anything runs: errors raised
#: inside a command, and ``--steps`` below 1 on the commands that train.
BAD_INPUT = [
    ["best", "-B", "0", "-P", "4"],
    ["best", "-B", "16", "-P", "0"],
    ["best", "-B", "16", "-P", "4", "--max-pc", "0"],
    ["run", "bogus"],
    ["faults", "--width", "0", "--steps", "2"],
    ["faults", "--steps", "0"],
    ["sdc", "--steps", "0"],
    ["sdc", "--steps", "2"],  # the gauntlet's last plan fires at step 2
    ["chaos", "--trials", "-1"],
    ["chaos", "--parity", "0"],
    ["chaos", "--parity", "4"],  # Pc = 4 leaves no data chunk
    ["chaos", "--seed", "-1"],
    ["faults", "--seed", "-1"],
    ["trace", "--batch", "-1"],
    ["trace", "--batch", "0"],
    ["trace", "--pr", "-1", "--pc", "-2"],
    ["profile", "--pr", "-2", "--pc", "-1"],
    ["faults", "--ranks", "1"],
    ["faults", "--plan", "no-such-plan.json"],
    ["chaos", "--steps", "3"],
    ["trace", "--pr", "3", "--pc", "2", "--batch", "1"],  # fewer samples than Pc
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_without_traceback(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith(f"repro {argv[0]}: ")
    assert "Traceback" not in proc.stderr


#: Output paths that are, or lie under, a regular file ``{f}``.
UNWRITABLE = [
    ["run", "eq5", "--quiet", "--out", "{f}"],
    ["trace", "--steps", "1", "--out", "{f}"],
    ["chaos", "--out", "{f}"],
    ["profile", "-P", "4", "--steps", "1", "--out", "{f}"],
    ["dash", "--registry", os.path.join(BENCHMARKS, "REGISTRY.jsonl"), "--out", "{f}/d.html"],
    ["trace", "--steps", "1", "--record", "{f}/r.json"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=lambda a: " ".join(a[:1] + a[-2:]))
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "F"
    blocker.write_text("")
    assert main([a.format(f=blocker) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: ") and str(blocker) in err
    assert err.count("\n") == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestFaults:
    def test_faults_demo_recovers(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "2x2 grid" in out
        assert "fault log:" in out
        assert "rank died" in out
        assert "shrank world to 3 survivors" in out
        assert "recovery: shrank to a" in out
        assert "failed ranks   : [1]" in out
        assert "max |w - serial|" in out
        assert "!" in out  # fault marks on the timeline

    def test_faults_with_plan_file(self, tmp_path, capsys):
        from repro.simmpi.faults import Crash, FaultPlan

        plan = FaultPlan(seed=1, crashes=(Crash(rank=2, at_step=3),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert main(["faults", "--plan", str(path), "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "failed ranks   : [2]" in out
        assert "resumed from the step-2 checkpoint" in out

    def test_faults_rejects_tiny_world(self, capsys):
        assert main(["faults", "--ranks", "1"]) == 2

    def test_faults_prints_span_timeline(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "#=in span" in out
        assert "recovery" in out

    def test_faults_record_round_trips(self, tmp_path, capsys):
        from repro.analysis import read_run_record

        path = tmp_path / "faults.json"
        assert main(["faults", "--steps", "6", "--record", str(path)]) == 0
        assert "record  : wrote" in capsys.readouterr().out
        record = read_run_record(str(path))
        assert record.trainer == "elastic"
        assert record.meta["failed_ranks"] == [1]

    def test_faults_no_fault_plan_runs_clean(self, tmp_path, capsys):
        from repro.simmpi.faults import FaultPlan

        path = tmp_path / "empty.json"
        path.write_text(FaultPlan().to_json())
        assert main(["faults", "--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "recovery: none needed" in out
        assert "failed ranks   : none" in out

    def test_faults_unguarded_bitflip_plan_degrades(self, tmp_path, capsys):
        from repro.simmpi.faults import BitFlipFault, FaultPlan

        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=1, target="matmul", layer=1, step=1,
                         gemm="fwd", element=3, bit=52),
        ))
        path = tmp_path / "flip.json"
        path.write_text(plan.to_json())
        assert main(["faults", "--plan", str(path)]) == 1
        captured = capsys.readouterr()
        assert "1 bit flip(s)" in captured.out
        assert "DEGRADED" in captured.err
        assert "escaped undetected" in captured.err

    def test_faults_same_plan_with_guards_recovers(self, tmp_path, capsys):
        from repro.simmpi.faults import BitFlipFault, FaultPlan

        plan = FaultPlan(bitflips=(
            BitFlipFault(rank=1, target="matmul", layer=1, step=1,
                         gemm="fwd", element=3, bit=52),
        ))
        path = tmp_path / "flip.json"
        path.write_text(plan.to_json())
        assert main(["faults", "--plan", str(path), "--sdc", "correct"]) == 0
        out = capsys.readouterr().out
        assert "ABFT on" in out
        assert "max |w - serial|" in out


class TestChaos:
    FAST = ["chaos", "--trials", "0", "--steps", "6"]

    def test_baseline_gauntlet_exits_0(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "chaos soak: 8 trials" in out
        assert "exact" in out
        assert "every trial recovered bit-identically" in out
        assert "SILENT" not in out

    def test_over_parity_losses_are_declared_not_silent(self, capsys):
        assert main(self.FAST + ["--over-parity"]) == 1
        out = capsys.readouterr().out
        assert "declared-degraded" in out
        assert "declared-failed" in out
        assert "SILENT" not in out

    def test_chaos_artifacts_written(self, tmp_path, capsys):
        import json

        assert main(self.FAST + ["--out", str(tmp_path)]) == 0
        files = os.listdir(tmp_path)
        assert "chaos_summary.json" in files
        assert "trial_crash-1.plan.json" in files
        assert "trial_crash-1.record.json" in files
        summary = json.loads((tmp_path / "chaos_summary.json").read_text())
        assert summary["exit_code"] == 0
        assert len(summary["trials"]) == 8
        assert all(t["outcome"] != "SILENT-DIVERGENCE" for t in summary["trials"])
        from repro.analysis import read_run_record

        record = read_run_record(str(tmp_path / "trial_crash-1.record.json"))
        assert record.trainer == "elastic"
        assert record.ckpt["restores"] > 0

    def test_chaos_random_trials_seeded(self, capsys):
        argv = self.FAST[:1] + ["--trials", "2", "--steps", "6", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_chaos_rejects_too_few_steps(self, capsys):
        assert main(["chaos", "--steps", "2"]) == 2
        assert "steps" in capsys.readouterr().err


class TestSDC:
    def test_guarded_gauntlet_all_recovered(self, capsys):
        assert main(["sdc"]) == 0
        out = capsys.readouterr().out
        assert "guards ON" in out
        assert "corrected" in out
        assert "recomputed" in out
        assert "bit-identical" in out
        assert "escaped" not in out

    def test_unguarded_gauntlet_escapes(self, capsys):
        assert main(["sdc", "--no-guard"]) == 2
        captured = capsys.readouterr()
        assert "escaped" in captured.out

    def test_detect_policy_is_loud_but_unrecovered(self, capsys):
        assert main(["sdc", "--policy", "detect"]) == 1
        out = capsys.readouterr().out
        assert "detected-unrecovered" in out

    def test_recompute_policy_with_record(self, tmp_path, capsys):
        from repro.analysis import read_run_record

        path = tmp_path / "sdc.json"
        assert main(["sdc", "--policy", "recompute", "--record", str(path)]) == 0
        assert "record" in capsys.readouterr().out
        record = read_run_record(str(path))
        assert record.config["sdc"] == "recompute"
        assert record.sdc["injected"] >= 1
        assert record.sdc["escaped"] == 0
