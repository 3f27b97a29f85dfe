"""Tests for the experiment harnesses: every registered experiment runs,
the figure-level claims the paper makes hold in the reproduction, and
every number EXPERIMENTS.md prints is the one its experiment produces."""

import pathlib
import re

import pytest

from repro.core.costs import integrated_cost
from repro.core.strategy import ProcessGrid, Strategy
from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments import fig6, fig7, fig8, fig9, fig10, eq5_crossover, table1, fig4
from repro.experiments import summa_ablation, ablations
from repro.experiments.common import default_setting
from repro.nn import alexnet


SETTING = default_setting()


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table1", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
                    "eq5", "summa", "ablations", "dist", "placements", "scaling",
                    "sensitivity", "pareto", "modelcheck"}
        assert expected == set(EXPERIMENTS)

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_entries_have_paper_refs(self):
        for entry in EXPERIMENTS.values():
            assert entry.paper_ref
            assert callable(entry.runner)


class TestTable1:
    def test_reports_the_fixed_options(self):
        res = table1.run(SETTING)
        text = res.render()
        assert "AlexNet" in text
        assert "1,200,000" in text
        assert "60,954,656" in text
        assert "2 us" in text and "6 GB/s" in text

    def test_layer_table_has_eight_rows(self):
        res = table1.run(SETTING)
        assert len(res.tables[1]) == 8


class TestFig4:
    def test_best_batch_is_256(self):
        res = fig4.run(SETTING)
        assert any("best batch size = 256" in n for n in res.notes)

    def test_covers_published_range(self):
        res = fig4.run(SETTING)
        col = res.tables[0].column("batch")
        assert col[0] == 1 and col[-1] == 2048

    def test_epoch_times_within_axis_range(self):
        """Fig. 4's y-axis spans ~10^3.5 .. 10^4.5 seconds."""
        res = fig4.run(SETTING)
        for t in res.tables[0].column("epoch_s"):
            assert 10**3.4 <= t <= 10**4.6


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(SETTING, panels=((8, 2048), (512, 2048)))

    def test_small_p_prefers_pure_batch(self, result):
        """Fig. 6(a): 'the benefit ... is not realized on a relatively
        small number of processors'."""
        summary = result.tables[0]
        row_p8 = next(r for r in summary.rows if r["P"] == 8)
        assert row_p8["best_grid"] == "1x8"

    def test_large_p_prefers_integration(self, result):
        summary = result.tables[0]
        row = next(r for r in summary.rows if r["P"] == 512)
        assert row["best_grid"] not in ("1x512", "512x1")
        assert row["speedup_total"] > 1.3
        assert row["speedup_comm"] > 2.0

    def test_charts_mark_best(self, result):
        assert all("<= best" in chart for chart in result.charts)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(SETTING, panels=((512, 2048),))

    def test_beats_fig6_configuration(self, result):
        """'Notice the significant improvement in best time compared to
        Fig. 6' (``test_claim`` pins the speedups EXPERIMENTS.md prints)."""
        row = result.tables[0].rows[0]
        assert row["speedup_comm"] > 6.0
        six = fig6.run(SETTING, panels=((512, 2048),)).tables[0].rows[0]
        assert row["best_total_s"] < six["best_total_s"]


class TestFig8:
    def test_overlap_keeps_speedup_near_2x(self):
        res = fig8.run(SETTING)
        row = res.tables[0].rows[0]
        assert row["speedup_total"] > 1.4

    def test_overlap_times_below_non_overlapped(self):
        plain = fig7.run(SETTING, panels=((512, 2048),)).tables[0].rows[0]
        over = fig8.run(SETTING).tables[0].rows[0]
        assert over["best_total_s"] <= plain["best_total_s"] + 1e-9


class TestFig9:
    def test_weak_scaling_keeps_integration_winning(self):
        res = fig9.run(SETTING, panels=((64, 256), (512, 2048)))
        for row in res.tables[0].rows:
            assert row["speedup_total"] >= 1.0
        last = res.tables[0].rows[-1]
        assert last["best_grid"] not in ("1x512", "512x1")


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(SETTING)

    def test_pure_batch_absent_beyond_limit(self, result):
        rows = result.tables[0].rows
        beyond = [r for r in rows if r["P"] > 512]
        assert beyond and all(r["strategy"] != "pure batch" for r in beyond)

    def test_domain_scaling_monotone(self, result):
        """The Fig. 10 headline: epoch time keeps falling past P = B."""
        rows = [r for r in result.tables[0].rows if r["strategy"].startswith("domain")]
        totals = [r["total_s"] for r in rows]
        assert all(t1 < t0 for t0, t1 in zip(totals, totals[1:]))

    def test_domain_halo_traffic_negligible_vs_model_allgather(self, result):
        """Sec. 2.4's mechanism: the domain halo moves a fraction of the
        model-parallel activation all-gather it replaces.  (Under the
        literal, non-overlapped Eq. 9 the conv-model grids can still total
        lower because domain replicates all conv weights; the paper's
        preference for domain rests on the halo being overlappable while
        the all-gather blocks — a reproduction nuance in the notes.)"""
        net, m = SETTING.network, SETTING.machine
        grid = ProcessGrid(8, 512)
        dom = integrated_cost(net, 512, Strategy.conv_domain_fc_model(net, grid), m)
        mod = integrated_cost(net, 512, Strategy.same_grid_model(net, grid), m)
        halo = dom.filter("domain.").total
        allgather = mod.filter("model.allgather_fwd").total
        assert halo < 0.2 * allgather


class TestEq5:
    def test_conv4_note_matches_paper_ballpark(self):
        res = eq5_crossover.run(SETTING)
        note = next(n for n in res.notes if "conv4" in n)
        assert "13.6" in note

    def test_fc_layers_have_large_crossover(self):
        res = eq5_crossover.run(SETTING)
        table = res.tables[0]
        fc_rows = [r for r in table.rows if r["kind"] == "fc"]
        assert all(r["crossover_B"] > 500 for r in fc_rows)


class TestSummaAndAblations:
    def test_summa_never_wins(self):
        res = summa_ablation.run(SETTING)
        assert any("no configuration" in n for n in res.notes)
        for table in res.tables:
            for row in table.rows:
                if "ratio_a_over_1p5d" in row:
                    assert row["ratio_a_over_1p5d"] >= 1.0

    def test_summa_measured_volumes_confirm_ordering(self):
        """The executable SUMMA-C moved at least the 1.5D volume in every
        traced configuration (Sec. 4, verified end to end)."""
        res = summa_ablation.run(SETTING)
        measured = res.tables[-1]
        assert len(measured) >= 3
        for row in measured.rows:
            assert row["summa_over_1p5d"] >= 1.0

    def test_ablations_redistribution_bound(self):
        res = ablations.run(SETTING)
        redis = res.tables[0]
        assert all(r["relative_to_model_step"] <= 1 / 3 + 1e-9 for r in redis.rows)

    def test_ablations_memory_tradeoff_rows_present(self):
        res = ablations.run(SETTING)
        mem = res.tables[1]
        grids = [r["grid"] for r in mem.rows]
        assert "1x512" in grids and "16x32" in grids


class TestPlacements:
    def test_decision_rule_shifts_with_batch(self):
        """Sec. 2.4: model placements migrate out of the convolutions as
        the batch grows past the Eq. 5 crossovers."""
        from repro.experiments import placements

        res = placements.run(SETTING)
        rows = {r["B"]: r for r in res.tables[0].rows}
        assert rows[4]["conv4"] == "model" and rows[4]["conv5"] == "model"
        assert rows[2048]["conv4"] == "batch" and rows[2048]["conv5"] == "batch"
        assert rows[2048]["fc6"] == "model" and rows[2048]["fc7"] == "model"

    def test_early_layer_never_model_at_large_batch(self):
        from repro.experiments import placements

        res = placements.run(SETTING)
        for row in res.tables[0].rows:
            if row["B"] >= 256:
                assert row["conv1"] in ("batch", "domain")


class TestScalingCurves:
    def test_strong_curve_passes_batch_limit(self):
        from repro.experiments import scaling_curves

        res = scaling_curves.run(
            SETTING, strong_processes=(128, 512, 1024), strong_batch=512,
            weak_pairs=((128, 512),),
        )
        table = res.tables[0]
        epochs = table.column("epoch_s")
        assert epochs[0] > epochs[1] > epochs[2]
        assert table.column("pure_batch_s")[-1] is None  # P=1024 > B


class TestSensitivity:
    def test_slow_network_amplifies_integration(self):
        from repro.experiments import sensitivity

        res = sensitivity.run(
            SETTING, bandwidths_gbps=(1.0, 100.0), latencies_us=(2.0,)
        )
        rows = {r["bandwidth_GBps"]: r for r in res.tables[0].rows}
        assert rows[1.0]["speedup"] > rows[100.0]["speedup"]
        assert rows[100.0]["speedup"] >= 1.0


class TestRunExperiment:
    @pytest.mark.parametrize(
        "experiment_id", ["table1", "fig4", "eq5", "summa", "ablations", "placements"]
    )
    def test_cheap_experiments_render(self, experiment_id):
        res = run_experiment(experiment_id)
        text = res.render()
        assert res.experiment_id == experiment_id
        assert res.tables and text.startswith(f"=== {experiment_id}")



# -- EXPERIMENTS.md, number by number ------------------------------------------

DOC = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
#: What a "measured here" cell may hold besides claims: references to the
#: paper's equations, figures, sections and Table 1, layer names, 1.5D, float64.
REFERENCES = re.compile(r"1\.5D|float64|Eq\.[- ]?\d+(/\d+)?|Fig\. \d|§\d|Table 1|(conv|fc)\d")


def _doc_table():
    """Row id -> (whole row, "measured here" cell) of EXPERIMENTS.md's table."""
    rows = {}
    for line in DOC.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 5 and cells[0] not in ("id", "----"):
            rows[cells[0]] = (" | ".join(cells), cells[3])
    return rows


def _if(holds, text):
    """A claim in words renders to the doc's words only while it holds."""
    return text if holds else f"NOT {text}"


def _x(grid):
    return grid.replace("x", "×")


def _col(result, name, table=0):
    return result.tables[table].column(name)


def _row(result, **match):
    return next(r for r in result.tables[0].rows if match.items() <= r.items())


def _grids(result, table):
    return "{%s}" % ", ".join(map(_x, _col(result, "grid", table)))


def _span(values, fmt=".1f"):
    lo, hi = format(min(values), fmt), format(max(values), fmt)
    return lo if lo == hi else f"{lo}–{hi}"


def _falls(values):
    return all(a > b for a, b in zip(values, values[1:]))


def _best(result, p):
    r = _row(result, P=p)
    return f"P={p}: {_x(r['best_grid'])} ({r['speedup_total']:.1f}×/{r['speedup_comm']:.1f}×)"


def _paper_gap(result):
    """How far the P=512 speedups fall short of those the paper's claim states."""
    paper = map(float, re.findall(r"([\d.]+)x", result.paper_claim))
    row = _row(result, P=512)
    return max(1 - row[k] / v for k, v in zip(("speedup_total", "speedup_comm"), paper))


def _domain_epochs(result):
    return [r["total_s"] for r in result.tables[0].rows if r["strategy"].startswith("domain")]


def _crossover(result):
    return _row(result, layer="conv4")["crossover_B"]


def _eq5_formula(result):
    """Eq. 5's crossover for conv4, the layer the paper names, with its terms."""
    w = next(w for w in alexnet(grouped=False).weighted_layers if w.name == "conv4")
    return (f"2·{w.kernel_h}·{w.kernel_w}·{w.in_shape.channels}/(3·{w.out_shape.height}·"
            f"{w.out_shape.width}) = {_crossover(result):.1f}")


def _summa_range(result):
    """Stationary-A SUMMA over 1.5D volume, lowest and highest across the sweeps."""
    rows = sorted((r for t in result.tables[:-1] for r in t.rows),
                  key=lambda r: r["ratio_a_over_1p5d"])
    lo, hi = rows[0], rows[-1]
    return (f"[{lo['ratio_a_over_1p5d']:g} ({_x(lo['grid'])}) … "
            f"{hi['ratio_a_over_1p5d']:g} ({_x(hi['grid'])})]")


def _summa_traced(result, i):
    """One traced SUMMA-C over 1.5D volume; |W| = d² against B·d."""
    r = result.tables[-1].rows[i]
    return f"{r['summa_over_1p5d']:.2f}× (|W|{'≫' if r['d'] > r['B'] else '≪'}Bd)"


def _model_free_from(result):
    """The smallest B from which on no convolution is model-parallel."""
    rows = result.tables[0].rows
    last = max(i for i, r in enumerate(rows) if "model" in (r[f"conv{k}"] for k in range(1, 6)))
    return rows[last + 1]["B"]


def _speedup_at(result, bandwidth):
    speedups = [r["speedup"] for r in result.tables[0].rows if r["bandwidth_GBps"] == bandwidth]
    return f"{sum(speedups) / len(speedups):.1f}× at {bandwidth:g} GB/s"


def _latency_spread(result):
    """The largest relative spread of the speedup across latencies at one bandwidth."""
    by_bw = {}
    for r in result.tables[0].rows:
        by_bw.setdefault(r["bandwidth_GBps"], []).append(r["speedup"])
    return max(1 - min(q) / max(q) for q in by_bw.values())


def _frontier(result):
    front = [r for r in result.tables[0].rows if r["on_frontier"]]
    assert len(front) >= 2
    lean, rich = ((r["memory_Melements"], 1e3 * r["comm_per_iter_s"], _x(r["strategy"].split()[0]))
                  for r in (front[0], front[-1]))
    return "{:.1f}M elements @ {:.1f} ms/iter ({}) to {:.1f}M @ {:.1f} ms/iter ({})".format(
        *lean, *rich)


def _within(result, table):
    """``<trainer> within x%``: the worst simulated/predicted ratio of one table."""
    worst = max(max(q, 1 / q) for q in _col(result, "simulated_over_predicted", table))
    return f"{('MLP', 'trainer', 'CNN')[table]} within {worst - 1:.1%}"


#: (EXPERIMENTS.md row, render from that row's result ``e`` and all results ``R``,
#: the value as the row prints it)
CLAIMS = [
    ("table1", lambda e, R: f"{sum(_col(e, 'weights', 1)):,}", "60,954,656"),
    ("table1", lambda e, R: re.search(r"\S+ Gflop/sample", e.notes[0])[0], "1.46 Gflop/sample"),
    ("fig4", lambda e, R: "best batch {batch} ({epoch_s:.0f} s)".format(
        **_row(e, epoch_s=min(_col(e, "epoch_s")))), "best batch 256 (3400 s)"),
    ("fig4", lambda e, R: "B=1 at {epoch_s:.0f} s".format(**_row(e, batch=1)), "B=1 at 31000 s"),
    *[(fig, lambda e, R, p=p: _best(e, p), value) for fig, p, value in (
        ("fig6", 8, "P=8: 1×8 (1.0×/1.0×)"), ("fig6", 64, "P=64: 2×32 (1.1×/1.2×)"),
        ("fig6", 256, "P=256: 4×64 (1.3×/2.1×)"), ("fig6", 512, "P=512: 4×128 (1.6×/2.7×)"),
        ("fig7", 8, "P=8: 4×2 (1.0×/2.0×)"), ("fig7", 64, "P=64: 8×8 (1.3×/4.4×)"),
        ("fig7", 256, "P=256: 16×16 (1.8×/7.1×)"), ("fig7", 512, "P=512: 32×16 (2.1×/8.7×)"))],
    ("fig7", lambda e, R: _if(all(a < b for a, b in zip(_col(e, "best_total_s"),
                                                        _col(R["fig6"], "best_total_s"))),
                              "strictly better than Fig. 6 at every P"),
     "strictly better than Fig. 6 at every P"),
    ("fig7", lambda e, R: f"within ~{_paper_gap(e):.0%}", "within ~15%"),
    ("fig8", lambda e, R: _x("{}, {:.1f}× total (comm speedup unchanged at {:.1f}×)".format(
        *map(_row(e, P=512).get, ("best_grid", "speedup_total", "speedup_comm")))),
     "32×16, 1.7× total (comm speedup unchanged at 8.7×)"),
    ("fig9", lambda e, R: "({P},{B})…".format(**e.tables[0].rows[0])
     + "({P},{B})".format(**e.tables[0].rows[-1]), "(64,256)…(512,2048)"),
    ("fig9", lambda e, R: _if(all(r["best_grid"] == f"4x{r['P'] // 4}" for r in e.tables[0].rows),
                              "best grid 4×(P/4)"), "best grid 4×(P/4)"),
    ("fig9", lambda e, R: f"{_span(_col(e, 'speedup_total'))}× total", "1.6× total"),
    ("fig9", lambda e, R: f"{_span(_col(e, 'speedup_comm'))}× comm", "2.7–2.8× comm"),
    ("fig10", lambda e, R: "{:.0f} s (P=512) → {:.0f} s → {:.0f} s → {:.0f} s (P=4096)".format(
        *_domain_epochs(e)), "251 s (P=512) → 130 s → 69 s → 39 s (P=4096)"),
    ("fig10", lambda e, R: _if(_falls(_domain_epochs(e)), "strictly monotone"),
     "strictly monotone"),
    ("fig10", lambda e, R: re.search(r"is \S+%", next(n for n in e.notes if "halo volume" in n))[0],
     "is 13–23%"),
    ("eq5", lambda e, R: _eq5_formula(e), "2·3·3·384/(3·13·13) = 13.6"),
    ("eq5", lambda e, R: f"model wins for B ≤ {int(_crossover(e))}", "model wins for B ≤ 13"),
    ("summa", lambda e, R: _summa_range(e), "[1.02 (256×2) … 514 (2×256)]"),
    ("summa", lambda e, R: _if(all(min(t.column("ratio_a_over_1p5d")) >= 1 for t in e.tables[:-1]),
                               "≥ 1 in every swept config"), "≥ 1 in every swept config"),
    ("summa (executable cross-check)", lambda e, R: _summa_traced(e, 0), "3.98× (|W|≫Bd)"),
    ("summa (executable cross-check)", lambda e, R: _summa_traced(e, 1), "1.09× (|W|≪Bd)"),
    ("summa (executable cross-check)",
     lambda e, R: _if(min(_col(e, "summa_over_1p5d", -1)) >= 1, "never below 1×"),
     "never below 1×"),
    ("ablations (Eq. 6)",
     lambda e, R: _if(set(_col(e, "relative_to_model_step")) == {0.3333}, "exactly 1/3"),
     "exactly 1/3"),
    ("ablations (memory)", lambda e, R: re.search(r"P=\d+", e.tables[1].title)[0], "P=512"),
    ("dist", lambda e, R: _if(max(max(_col(e, "max_weight_err", t)) for t in range(3)) <= 1e-13,
                              "≤1e-13"), "≤1e-13"),
    ("dist", lambda e, R: _grids(e, 0), "{1×4, 4×1, 2×2, 2×3, 4×2}"),
    ("dist", lambda e, R: _grids(e, 1), "{2×1, 4×1, 2×2, 1×4}"),
    ("placements (extension)",
     lambda e, R: _x(re.search(r"\d+x\d+ grid", e.tables[0].title)[0]), "4×2 grid"),
    ("placements (extension)",
     lambda e, R: _if(_row(e, B=4)["conv4"] == _row(e, B=4)["conv5"] == "model",
                      "at B=4 conv4/conv5 choose *model*"), "at B=4 conv4/conv5 choose *model*"),
    ("placements (extension)", lambda e, R: f"≈{_crossover(R['eq5']):.1f}", "≈13.6"),
    ("placements (extension)", lambda e, R: f"B≥{_model_free_from(e)}", "B≥32"),
    ("scaling (extension)",
     lambda e, R: "B=" + re.search(r"B = (\d+)", e.tables[0].title)[1], "B=512"),
    ("scaling (extension)", lambda e, R: _if(
        _falls(_col(e, "epoch_s")), f"falls monotonically through P={_col(e, 'P')[-1]}"),
     "falls monotonically through P=2048"),
    ("scaling (extension)", lambda e, R: ", ".join(  # the points pure batch cannot reach
        f"{r['epoch_s']:.1f} s at P={r['P']}" for r in e.tables[0].rows
        if r["pure_batch_s"] is None), "46.9 s at P=1024, 29.1 s at P=2048"),
    *[("sensitivity (extension)", lambda e, R, bw=bw: _speedup_at(e, bw), value) for bw, value in (
        (1.0, "4.9× at 1 GB/s"), (6.0, "2.1× at 6 GB/s"), (100.0, "1.1× at 100 GB/s"))],
    ("sensitivity (extension)", lambda e, R: _if(
        _latency_spread(e) < 0.05, f"{_span(_col(e, 'alpha_us'), 'g')} µs barely moves it"),
     "0.5–10 µs barely moves it"),
    ("pareto (extension)",
     lambda e, R: re.search(r"P=\d+, B=\d+", e.tables[0].title)[0], "P=512, B=2048"),
    ("pareto (extension)", lambda e, R: _frontier(e),
     "25.1M elements @ 9.9 ms/iter (16×32) to 31.9M @ 9.4 ms/iter (32×16)"),
    ("modelcheck (validation)", lambda e, R: _grids(e, 0), "{2×2, 4×1, 1×4, 2×4, 3×2}"),
    *[("modelcheck (validation)", lambda e, R, t=t: _within(e, t), value) for t, value in (
        (0, "MLP within 0.2%"), (1, "trainer within 0.0%"), (2, "CNN within 0.6%"))],
]


@pytest.fixture(scope="module")
def results():
    """Every registered experiment, run once the way ``repro run all`` runs it."""
    return {eid: get_experiment(eid).runner() for eid in EXPERIMENTS}


@pytest.mark.parametrize("row,render,value", CLAIMS, ids=[  # ASCII ids: "fig6: P=8: 1_8 (...)"
    re.sub(r"[^ -~]+", "_", f"{row.split()[0]}: {value}") for row, _, value in CLAIMS])
def test_claim(results, row, render, value):
    assert render(results[row.split()[0]], results) == value
    assert value in _doc_table()[row][0], f"EXPERIMENTS.md's {row!r} row no longer prints {value!r}"


def test_every_measured_number_is_pinned(results):
    """Every experiment has a row and a table to export, and every number
    of a "measured here" cell is some claim's value or a reference."""
    doc = _doc_table()
    assert {row.split()[0] for row in doc} == set(results)
    for row, (_, measured) in doc.items():
        assert results[row.split()[0]].tables, row
        for value in (value for claim_row, _, value in CLAIMS if claim_row == row):
            measured = measured.replace(value, "")
        assert not re.search(r"\d", REFERENCES.sub("", measured)), (row, measured)
