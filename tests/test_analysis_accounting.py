"""Tests for per-rank virtual-time accounting (repro.analysis.accounting)."""

import numpy as np
import pytest

from repro.analysis import AccountingReport, RankAccount, rank_accounting, span_accounting
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.errors import ConfigurationError
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent


def _p2p(rank, op, peer, t0, t1, span=()):
    return TraceEvent(
        rank=rank, op=op, peer=peer, nbytes=8, t_start=t0, t_end=t1, span=span
    )


HAND_EVENTS = (
    _p2p(0, "send", 1, 0.0, 1.0),
    _p2p(0, "recv", 1, 1.0, 3.0),
    _p2p(1, "recv", 0, 0.0, 2.0),
    _p2p(1, "send", 0, 2.0, 3.0),
)


def _traced_mlp(pr=2, pc=2, batch=8, steps=2, dims=(12, 9, 5)):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((dims[0], 4 * batch))
    y = rng.integers(0, dims[-1], 4 * batch)
    engine = SimEngine(pr * pc, trace=True)
    _, _, sim = distributed_mlp_train(
        MLPParams.init(dims, seed=0), x, y,
        pr=pr, pc=pc, batch=batch, steps=steps, engine=engine,
    )
    return engine, sim


class TestHandTrace:
    def test_exact_decomposition_without_clocks(self):
        report = rank_accounting(HAND_EVENTS)
        a0, a1 = report.account(0), report.account(1)
        assert a0 == RankAccount(0, 3.0, 0.0, 1.0, 2.0, sends=1, recvs=1)
        assert a1.comm_s == 1.0 and a1.wait_s == 2.0 and a1.compute_s == 0.0
        assert report.makespan_s == 3.0

    def test_clocks_pin_trailing_compute(self):
        report = rank_accounting(HAND_EVENTS, clocks=(4.0, 3.0))
        assert report.account(0).compute_s == pytest.approx(1.0)
        assert report.account(0).wall_s == 4.0
        assert report.makespan_s == 4.0
        assert report.straggler_rank == 0

    def test_clocks_surface_silent_ranks(self):
        report = rank_accounting(HAND_EVENTS, clocks=(3.0, 3.0, 0.5))
        silent = report.account(2)
        assert silent.sends == silent.recvs == 0
        assert silent.compute_s == pytest.approx(0.5)

    def test_idle_fraction_counts_wait_and_tail(self):
        report = rank_accounting(HAND_EVENTS, clocks=(4.0, 3.0))
        # rank 0: wait 2.0; rank 1: wait 2.0 + tail (4.0 - 3.0).
        assert report.idle_fraction == pytest.approx((2.0 + 3.0) / (2 * 4.0))

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            rank_accounting([])


class TestTracedRun:
    def test_decomposition_identity_every_rank(self):
        engine, sim = _traced_mlp()
        report = rank_accounting(engine.tracer.canonical(), clocks=sim.clocks)
        for a in report.accounts:
            assert a.compute_s + a.comm_s + a.wait_s == pytest.approx(
                a.wall_s, abs=1e-12
            )
            assert a.compute_s >= -1e-12
        assert report.makespan_s == pytest.approx(sim.time)

    def test_all_ranks_send_and_receive(self):
        engine, sim = _traced_mlp()
        report = rank_accounting(engine.tracer.canonical(), clocks=sim.clocks)
        assert report.ranks == (0, 1, 2, 3)
        for a in report.accounts:
            assert a.sends > 0 and a.recvs > 0

    def test_imbalance_at_least_one(self):
        engine, sim = _traced_mlp(pr=2, pc=1, dims=(10, 7, 4), batch=6)
        report = rank_accounting(engine.tracer.canonical(), clocks=sim.clocks)
        assert report.imbalance >= 1.0

    def test_group_tables(self):
        engine, sim = _traced_mlp()
        report = rank_accounting(engine.tracer.canonical(), clocks=sim.clocks)
        rows = report.group_table(2, 2, axis="row")
        cols = report.group_table(2, 2, axis="col")
        assert [r["row"] for r in rows.rows] == [0, 1]
        assert [r["col"] for r in cols.rows] == [0, 1]
        assert all(r["ranks"] == 2 for r in rows.rows)

    def test_group_table_validates(self):
        engine, sim = _traced_mlp()
        report = rank_accounting(engine.tracer.canonical(), clocks=sim.clocks)
        with pytest.raises(ConfigurationError):
            report.group_table(2, 2, axis="diag")
        with pytest.raises(ConfigurationError):
            report.group_table(1, 2)  # 4 ranks cannot fit a 1x2 grid


class TestSpanAccounting:
    def test_spans_decomposed(self):
        engine, _ = _traced_mlp()
        table = span_accounting(engine.tracer.canonical())
        names = [r["span"] for r in table.rows]
        assert "step" in names
        assert "fwd" in names


class TestReportShape:
    def test_to_table_columns(self):
        report = AccountingReport(
            (RankAccount(0, 1.0, 0.5, 0.3, 0.2, 2, 2),), 1.0
        )
        table = report.to_table()
        assert table.columns[:5] == ("rank", "wall", "compute", "comm", "wait")
        assert len(table.rows) == 1
