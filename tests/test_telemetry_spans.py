"""Tests for telemetry spans: nesting, event annotation, zero-overhead."""

import threading

import numpy as np

from repro.dist.train import MLPParams, distributed_mlp_train
from repro.simmpi.engine import SimEngine
from repro.telemetry.spans import (
    base_name,
    current_path,
    format_label,
    parse_label,
    span,
)


class TestLabels:
    def test_plain_name(self):
        assert format_label("fwd", {}) == "fwd"
        assert parse_label("fwd") == ("fwd", {})
        assert base_name("fwd") == "fwd"

    def test_attrs_sorted_and_parsed(self):
        label = format_label("fwd", {"layer": 3, "alg": "bruck"})
        assert label == "fwd[alg=bruck,layer=3]"
        name, attrs = parse_label(label)
        assert name == "fwd"
        assert attrs == {"alg": "bruck", "layer": 3}
        assert isinstance(attrs["layer"], int)
        assert base_name(label) == "fwd"

    def test_float_values_roundtrip(self):
        _, attrs = parse_label(format_label("s", {"f": 0.5}))
        assert attrs == {"f": 0.5}


class TestNesting:
    def test_path_tracks_nesting(self):
        assert current_path() == ()
        with span("a", x=1):
            assert current_path() == ("a[x=1]",)
            with span("b"):
                assert current_path() == ("a[x=1]", "b")
            assert current_path() == ("a[x=1]",)
        assert current_path() == ()

    def test_exception_unwinds_stack(self):
        try:
            with span("outer"):
                with span("inner"):
                    raise ValueError("boom")
        except ValueError:
            pass
        assert current_path() == ()

    def test_threads_are_isolated(self):
        seen = {}

        def worker():
            with span("worker"):
                seen["path"] = current_path()

        with span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert current_path() == ("main",)
        assert seen["path"] == ("worker",)


def _annotated_program(comm):
    with span("phase", comm=comm, step=0):
        return comm.allreduce(np.ones(4), algorithm="ring")


class TestEngineIntegration:
    def test_events_carry_span_path(self):
        eng = SimEngine(2, trace=True)
        eng.run(_annotated_program)
        sends = [e for e in eng.tracer.events if e.op == "send"]
        assert sends, "ring allreduce must send"
        for e in sends:
            assert e.span[0] == "phase[step=0]"
            assert base_name(e.span[-1]) == "allreduce"

    def test_span_bracket_events_recorded(self):
        eng = SimEngine(2, trace=True)
        eng.run(_annotated_program)
        brackets = [e for e in eng.tracer.events if e.op == "span"]
        phase = [e for e in brackets if e.span == ("phase[step=0]",)]
        # One closing bracket per rank; virtual time moved inside.
        assert sorted(e.rank for e in phase) == [0, 1]
        for e in phase:
            assert e.t_end >= e.t_start >= 0.0
            assert e.tag == (("step", 0),)
        # Collectives bracket themselves too (nested under the phase).
        assert any(base_name(e.span[-1]) == "allreduce" for e in brackets)

    def test_disabled_tracer_records_nothing(self):
        eng = SimEngine(2)
        eng.run(_annotated_program)
        assert eng.tracer.events == ()

    def test_tracing_leaves_virtual_time_bit_identical(self):
        dims = (12, 8, 6)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((dims[0], 32))
        y = rng.integers(0, dims[-1], 32)
        params0 = MLPParams.init(dims, seed=0)
        runs = [
            distributed_mlp_train(
                params0, x, y, pr=2, pc=2, batch=8, steps=3,
                engine=SimEngine(4, trace=traced),
            )
            for traced in (False, True)
        ]
        (w_off, losses_off, sim_off), (w_on, losses_on, sim_on) = runs
        assert losses_off == losses_on
        assert sim_off.clocks == sim_on.clocks  # exact, not approximate
        for a, b in zip(w_off, w_on):
            assert np.array_equal(a, b)

    def test_analysis_is_observability_only(self):
        """Running the full analysis stack never perturbs the run.

        A traced run analysed with accounting + critical path + record
        building must keep bit-identical weights, losses and virtual
        clocks to an untraced run of the same program — the trace is a
        read-only view, and the analysis a pure consumer of it.
        """
        from repro.analysis import critical_path, rank_accounting
        from repro.dist.train import mlp_run_record
        from repro.simmpi.engine import SimEngine

        dims = (12, 8, 6)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((dims[0], 32))
        y = rng.integers(0, dims[-1], 32)
        params0 = MLPParams.init(dims, seed=0)
        kw = dict(pr=2, pc=2, batch=8, steps=3)
        w_off, losses_off, sim_off = distributed_mlp_train(
            params0, x, y, **kw
        )
        engine = SimEngine(4, trace=True)
        w_on, losses_on, sim_on = distributed_mlp_train(
            params0, x, y, engine=engine, **kw
        )
        events = engine.tracer.canonical()
        rank_accounting(events, clocks=sim_on.clocks)
        critical_path(events, clocks=sim_on.clocks)
        record = mlp_run_record(engine, sim_on, dims=dims, **kw)
        assert losses_off == losses_on
        assert sim_off.clocks == sim_on.clocks
        for a, b in zip(w_off, w_on):
            assert np.array_equal(a, b)
        # The analyses left the trace untouched and agree with the run.
        assert engine.tracer.canonical() == events
        assert record.makespan_s == max(sim_off.clocks)
