"""Tests for the dependency DAG and critical-path extractor."""

import numpy as np
import pytest

from repro.analysis import (
    attribute_event,
    build_dependency_graph,
    critical_path,
)
from repro.dist.summa2d import summa_matmul
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent


def _ev(rank, op, peer, t0, t1, tag=("m",), span=()):
    return TraceEvent(
        rank=rank, op=op, peer=peer, nbytes=8,
        t_start=t0, t_end=t1, tag=tag, span=span,
    )


#: rank 0 sends twice to rank 1; rank 1 receives both (the first waited).
HAND_EVENTS = (
    _ev(0, "send", 1, 0.0, 1.0),
    _ev(0, "send", 1, 1.0, 2.0),
    _ev(1, "recv", 0, 0.0, 1.5),
    _ev(1, "recv", 0, 1.5, 2.5),
)


class TestDependencyGraph:
    def test_program_and_message_edges(self):
        g = build_dependency_graph(HAND_EVENTS)
        assert g.n_nodes == 4
        assert set(g.program_edges) == {(0, 1), (2, 3)}
        # FIFO matching per (src, dst, tag): first send -> first recv.
        assert set(g.message_edges) == {(0, 2), (1, 3)}
        assert g.n_edges == 4

    def test_waited_recv_arrival_is_its_end(self):
        g = build_dependency_graph(HAND_EVENTS)
        assert g.arrivals[(0, 2)] == 1.5
        assert g.arrivals[(1, 3)] == 2.5

    def test_tags_partition_the_matching(self):
        events = (
            _ev(0, "send", 1, 0.0, 1.0, tag=("a",)),
            _ev(0, "send", 1, 1.0, 2.0, tag=("b",)),
            _ev(1, "recv", 0, 0.0, 2.2, tag=("b",)),
        )
        g = build_dependency_graph(events)
        # The recv matches the tag-"b" send, not the earlier tag-"a" one.
        assert g.message_edges == ((1, 2),)

    def test_dropped_send_produces_no_edge(self):
        events = HAND_EVENTS + (
            TraceEvent(rank=0, op="fault.drop", peer=1, nbytes=0,
                       t_start=1.0, t_end=1.0, tag=("m",)),
        )
        g = build_dependency_graph(events)
        # The second send (t_start 1.0) was dropped: only one message edge.
        assert g.message_edges == ((0, 2),)

    def test_unmatched_send_stays_leaf(self):
        g = build_dependency_graph(HAND_EVENTS[:1])
        assert g.n_nodes == 1 and g.n_edges == 0

    def test_non_p2p_events_excluded(self):
        events = HAND_EVENTS + (
            _ev(0, "span", -1, 0.0, 3.0),
            _ev(0, "allreduce", -1, 0.0, 3.0),
        )
        assert build_dependency_graph(events).n_nodes == 4


class TestHandCriticalPath:
    def test_zero_slack_chain(self):
        cp = critical_path(HAND_EVENTS)
        assert cp.makespan_s == 2.5
        assert cp.length_s <= cp.makespan_s
        ops = [(c.event.rank, c.event.op) for c in cp.path]
        # The chain runs through both sends into the final recv.
        assert ops == [(0, "send"), (0, "send"), (1, "recv")]
        assert all(s >= 0.0 for s in cp.slack)

    def test_early_message_absorbs_slack(self):
        events = (
            _ev(0, "send", 1, 0.0, 1.0),
            _ev(1, "recv", 0, 4.0, 4.0),  # posted long after arrival
        )
        cp = critical_path(events, clocks=(1.0, 4.0))
        # The sender could slip by the mailbox wait without moving rank 1.
        assert cp.slack[0] > 0.0
        assert [c.event.rank for c in cp.path] == [1]

    def test_clocks_extend_makespan(self):
        cp = critical_path(HAND_EVENTS, clocks=(5.0, 2.5))
        assert cp.makespan_s == 5.0

    def test_no_p2p_events_path_spans_the_makespan(self):
        events = [_ev(0, "span", -1, 0.0, 1.0)]
        cp = critical_path(events)
        assert cp.path == () and cp.slack == ()
        assert cp.length_s == cp.makespan_s == 1.0
        assert critical_path(events, clocks=(2.5,)).length_s == 2.5
        assert critical_path([]).length_s == 0.0


class TestAttribution:
    def test_phase_layer_category(self):
        e = _ev(0, "send", 1, 0.0, 1.0, span=("step[step=0]", "fwd[layer=2]",
                                              "allgather"))
        assert attribute_event(e) == ("fwd", 2, "model.allgather_fwd")

    def test_outside_phase_is_other(self):
        assert attribute_event(_ev(0, "send", 1, 0.0, 1.0)) == (
            "other", -1, "other"
        )
        e = _ev(0, "send", 1, 0.0, 1.0, span=("step", "allreduce"))
        assert attribute_event(e) == ("allreduce", -1, "other")


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


class TestTracedRuns:
    def test_mlp_path_bounds_makespan(self):
        engine, sim = _traced_mlp()
        cp = critical_path(engine.tracer.canonical(), clocks=sim.clocks)
        assert cp.path, "a communicating run must have a critical path"
        assert 0.0 < cp.length_s <= cp.makespan_s + 1e-15
        assert cp.makespan_s == pytest.approx(sim.time)
        assert all(s >= -1e-15 for s in cp.slack)

    def test_mlp_path_is_time_ordered_chain(self):
        engine, sim = _traced_mlp()
        cp = critical_path(engine.tracer.canonical(), clocks=sim.clocks)
        starts = [c.event.t_start for c in cp.path]
        assert starts == sorted(starts)

    def test_mlp_categories_cover_cost_model(self):
        engine, sim = _traced_mlp()
        cp = critical_path(engine.tracer.canonical(), clocks=sim.clocks)
        assert set(cp.by_category()) & {
            "model.allgather_fwd", "model.allreduce_dx",
            "batch.allreduce_dw", "other",
        }

    def test_summa_trace(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal((4, 6))
        engine = SimEngine(4, trace=True)
        sim = engine.run(summa_matmul, a, b, 2, 2)
        cp = critical_path(engine.tracer.canonical(), clocks=sim.clocks)
        assert cp.path
        assert cp.length_s <= cp.makespan_s + 1e-15
        assert all(s >= -1e-15 for s in cp.slack)

    def test_summary_digest_keys(self):
        engine, sim = _traced_mlp()
        cp = critical_path(engine.tracer.canonical(), clocks=sim.clocks)
        digest = cp.summary()
        assert digest["events"] == len(cp.path)
        assert digest["dag_nodes"] == cp.graph.n_nodes
        assert digest["length_s"] <= digest["makespan_s"]
        assert set(digest["by_category"]) == set(cp.by_category())

    def test_to_table_limit(self):
        engine, sim = _traced_mlp()
        cp = critical_path(engine.tracer.canonical(), clocks=sim.clocks)
        assert len(cp.to_table(limit=5).rows) == 5
        assert len(cp.to_table().rows) == len(cp.path)

    def test_analysis_does_not_mutate_the_trace(self):
        engine, sim = _traced_mlp()
        before = engine.tracer.canonical()
        critical_path(before, clocks=sim.clocks)
        assert engine.tracer.canonical() == before
