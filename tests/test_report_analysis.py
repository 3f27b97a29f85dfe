"""Tests for the markdown/HTML analysis report renderers."""

import numpy as np
import pytest

from repro.analysis import critical_path, rank_accounting
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.errors import ConfigurationError
from repro.report.analysis import (
    analysis_html,
    analysis_markdown,
    critical_path_markdown,
    render_imbalance_heatmap,
)
from repro.simmpi.engine import SimEngine


def _analysed(pr=2, pc=2, batch=8, steps=2, dims=(12, 9, 5)):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((dims[0], 4 * batch))
    y = rng.integers(0, dims[-1], 4 * batch)
    engine = SimEngine(pr * pc, trace=True)
    _, _, sim = distributed_mlp_train(
        MLPParams.init(dims, seed=0), x, y,
        pr=pr, pc=pc, batch=batch, steps=steps, engine=engine,
    )
    events = engine.tracer.canonical()
    return (
        rank_accounting(events, clocks=sim.clocks),
        critical_path(events, clocks=sim.clocks),
    )


ACCOUNTING, CP = _analysed()


class TestHeatmap:
    def test_grid_rows_and_straggler_brackets(self):
        out = render_imbalance_heatmap(ACCOUNTING, 2, 2)
        lines = out.splitlines()
        assert lines[1].startswith("row 0 |")
        assert lines[2].startswith("row 1 |")
        assert f"[{ACCOUNTING.straggler_rank}:" in out

    def test_every_rank_appears(self):
        out = render_imbalance_heatmap(ACCOUNTING, 2, 2)
        for rank in range(4):
            assert f"{rank}:" in out

    def test_absent_rank_marked(self):
        out = render_imbalance_heatmap(ACCOUNTING, 2, 3)
        assert "(absent)" in out

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            render_imbalance_heatmap(ACCOUNTING, 0, 2)
        with pytest.raises(ConfigurationError):
            render_imbalance_heatmap(ACCOUNTING, 1, 2)  # 4 ranks, 2 cells


class TestCriticalPathMarkdown:
    def test_table_and_headline(self):
        out = critical_path_markdown(CP)
        assert "## Critical path" in out
        assert "| hop | rank | op |" in out
        assert str(CP.graph.n_nodes) in out

    def test_limit_elides_tail(self):
        out = critical_path_markdown(CP, limit=3)
        assert f"{len(CP.path) - 3} more hops" in out
        full = critical_path_markdown(CP, limit=None)
        assert "more hops" not in full


class TestFullDocuments:
    def test_markdown_sections(self):
        out = analysis_markdown(ACCOUNTING, CP, pr=2, pc=2, title="My run")
        assert out.startswith("# My run")
        assert "## Load imbalance" in out
        assert "## Critical path" in out
        assert "straggler" in out

    def test_html_is_self_contained(self):
        out = analysis_html(ACCOUNTING, CP, pr=2, pc=2)
        assert out.startswith("<!DOCTYPE html>")
        assert "<table>" in out and "</html>" in out
        assert out.count("<tr>") == len(CP.path) + 1  # header + one per hop

    def test_html_escapes_title(self):
        out = analysis_html(ACCOUNTING, CP, pr=2, pc=2, title="<script>")
        assert "<script>" not in out
        assert "&lt;script&gt;" in out
