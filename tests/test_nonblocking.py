"""Tests for non-blocking point-to-point (isend/irecv) and the overlap
timing semantics the paper's halo-exchange argument relies on."""

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.machine.params import MachineParams
from repro.simmpi.engine import SimEngine

SLOW = MachineParams(alpha=1.0, beta_per_byte=0.0)  # 1s latency, free bandwidth


class TestBasics:
    def test_isend_irecv_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(np.arange(4.0), 1)
                assert req.wait() is None
                return None
            req = comm.irecv(0)
            return req.wait()

        res = SimEngine(2).run(prog)
        np.testing.assert_array_equal(res[1], np.arange(4.0))

    def test_send_request_completes_immediately(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.isend(b"x", 1).completed
            return comm.recv(0) and True

        assert SimEngine(2).run(prog)[0] is True

    def test_test_probe_does_not_consume(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(7, 1)
                return None
            req = comm.irecv(0)
            # Busy-probe until arrival, then wait must still deliver.
            import time

            for _ in range(200):
                if req.test():
                    break
                time.sleep(0.005)
            return req.wait()

        assert SimEngine(2).run(prog)[1] == 7

    def test_wait_twice_returns_same_payload(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send([1, 2], 1)
                return None
            req = comm.irecv(0)
            first = req.wait()
            return first, req.wait()

        a, b = SimEngine(2).run(prog)[1]
        assert a == b == [1, 2]

    def test_irecv_unmatched_deadlocks(self):
        def prog(comm):
            if comm.rank == 1:
                comm.irecv(0).wait()

        with pytest.raises(RankFailedError):
            SimEngine(2).run(prog)

    def test_pending_request_probes_empty_once_the_run_is_over(self):
        """Arrived-but-unwaited or never sent: after ``run()`` both answer
        ``False`` — the run's messages are gone."""
        held = {}

        def prog(comm):
            if comm.rank == 0:
                held["arrived"] = comm.irecv(1, tag=1)
                held["never"] = comm.irecv(1, tag=2)
            else:
                comm.send(np.arange(3.0), 0, tag=1)
            comm.barrier()  # the send is posted before anyone leaves
            if comm.rank == 0:
                return held["arrived"].test(), held["never"].test()

        engine = SimEngine(2)
        assert engine.run(prog)[0] == (True, False)
        assert held["arrived"].test() is False and held["never"].test() is False
        assert not held["arrived"].completed


class TestOverlapTiming:
    def test_compute_overlaps_message_flight(self):
        """Posting irecv, computing 1s, then waiting on a 1s-latency
        message costs max(compute, flight) = 1s, not 2s — the paper's
        non-blocking-halo mechanism."""

        def overlapped(comm):
            if comm.rank == 0:
                comm.send(b"halo", 1)
            else:
                req = comm.irecv(0)
                comm.advance(1.0)  # interior convolution
                req.wait()
            return comm.clock

        res = SimEngine(2, SLOW).run(overlapped)
        assert res.values[1] == pytest.approx(1.0, rel=1e-6)

    def test_blocking_recv_serialises(self):
        """The blocking order (recv, then compute) costs the sum —
        what the paper says happens with a blocking all-gather."""

        def blocking(comm):
            if comm.rank == 0:
                comm.send(b"halo", 1)
            else:
                comm.recv(0)
                comm.advance(1.0)
            return comm.clock

        res = SimEngine(2, SLOW).run(blocking)
        assert res.values[1] == pytest.approx(2.0, rel=1e-6)

    def test_late_arrival_still_waits(self):
        m = MachineParams(alpha=3.0, beta_per_byte=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"x", 1)
            else:
                req = comm.irecv(0)
                comm.advance(1.0)  # not enough to hide a 3s flight
                req.wait()
            return comm.clock

        res = SimEngine(2, m).run(prog)
        assert res.values[1] == pytest.approx(3.0, rel=1e-6)
