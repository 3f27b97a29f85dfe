"""Tests for the trace timeline renderer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine.params import cori_knl
from repro.report.timeline import render_timeline, traffic_matrix
from repro.simmpi.engine import SimEngine


def traced_run(size, prog):
    engine = SimEngine(size, cori_knl(), trace=True)
    engine.run(prog)
    return engine.tracer.events


class TestTimeline:
    def test_renders_one_row_per_rank(self):
        def prog(comm):
            comm.allreduce(np.ones(1000, dtype=np.float32))

        events = traced_run(4, prog)
        text = render_timeline(events)
        assert text.count("rank") == 4
        assert "s" in text and "r" in text

    def test_empty_trace(self):
        assert "no point-to-point" in render_timeline([])

    def test_width_validation(self):
        with pytest.raises(ConfigurationError):
            render_timeline([], width=2)

    def test_idle_rank_is_dots(self):
        def prog(comm):
            if comm.rank < 2:
                if comm.rank == 0:
                    comm.send(np.ones(100), 1)
                else:
                    comm.recv(0)

        events = traced_run(3, prog)
        text = render_timeline(events, ranks=[2])
        row = [ln for ln in text.splitlines() if ln.startswith("rank   2")][0]
        assert set(row.split("|")[1]) == {"."}


class TestTrafficMatrix:
    def test_ring_allreduce_talks_to_neighbours_only(self):
        """The ring's structure, read off the trace: every rank sends
        only to (rank + 1) mod P."""

        def prog(comm):
            comm.allreduce(np.ones(4000, dtype=np.float32), algorithm="ring")

        events = traced_run(4, prog)
        matrix = traffic_matrix(events)
        for src, row in matrix.items():
            assert set(row) == {(src + 1) % 4}

    def test_halo_exchange_talks_to_both_neighbours(self):
        from repro.dist.conv_domain import DomainConv2D
        from repro.dist.partition import BlockPartition

        x = np.random.default_rng(0).standard_normal((1, 2, 8, 4))
        part = BlockPartition(8, 4)

        def prog(comm):
            op = DomainConv2D(comm, 8, 3, 3)
            op.forward(part.take(x, comm.rank, axis=2), np.zeros((2, 2, 3, 3)))

        matrix = traffic_matrix(traced_run(4, prog))
        assert set(matrix[1]) == {0, 2}
        assert set(matrix[0]) == {1}
        assert set(matrix[3]) == {2}

    def test_volumes_symmetric_for_stride1_halo(self):
        from repro.dist.conv_domain import DomainConv2D
        from repro.dist.partition import BlockPartition

        x = np.random.default_rng(0).standard_normal((1, 2, 8, 4))
        part = BlockPartition(8, 2)

        def prog(comm):
            op = DomainConv2D(comm, 8, 3, 3)
            op.forward(part.take(x, comm.rank, axis=2), np.zeros((2, 2, 3, 3)))

        matrix = traffic_matrix(traced_run(2, prog))
        assert matrix[0][1] == matrix[1][0]

class TestFaultRendering:
    def _traced_faulty_run(self):
        from repro.simmpi.faults import FaultPlan, TransientFault

        plan = FaultPlan(transients=(TransientFault(0, send_index=0, attempts=1),))
        eng = SimEngine(2, faults=plan, trace=True)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.ones(64), 1)
            else:
                comm.recv(0)

        eng.run(prog)
        return eng.tracer.canonical()

    def test_timeline_marks_faults(self):
        out = render_timeline(self._traced_faulty_run())
        assert "!=fault" in out
        assert "!" in out.splitlines()[1]  # rank 0's row carries the mark

    def test_fault_log_lines(self):
        from repro.report.timeline import render_fault_log

        out = render_fault_log(self._traced_faulty_run())
        assert "transient" in out and "retry" in out and "backoff" in out
        assert "rank   0" in out

    def test_fault_log_empty(self):
        from repro.report.timeline import render_fault_log

        assert "no fault events" in render_fault_log([])
