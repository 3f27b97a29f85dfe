"""Tests for the simulated MPI engine and point-to-point semantics."""

import threading

import numpy as np
import pytest

from repro.errors import (
    CommunicatorError,
    ConfigurationError,
    DeadlockError,
    PeerFailedError,
    RankFailedError,
    SimulatedCrashError,
)
from repro.machine.params import MachineParams, cori_knl
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan
from repro.simmpi.network import PostalNetwork, payload_bytes


class TestEngineBasics:
    def test_returns_per_rank_values(self):
        res = SimEngine(4).run(lambda comm: comm.rank * 10)
        assert res.values == (0, 10, 20, 30)
        assert res[2] == 20

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            SimEngine(0)

    @pytest.mark.parametrize("size", [True, 4.0, "4", 0, -1, np.int64(4)])
    def test_size_must_be_a_positive_integer(self, size):
        if isinstance(size, np.integer):
            engine = SimEngine(size)
            assert type(engine.size) is int and engine.size == 4
            assert engine.run(lambda comm: comm.size).values == (4,) * 4
            return
        with pytest.raises(ConfigurationError, match="engine size") as err:
            SimEngine(size)
        assert repr(size) in str(err.value)

    def test_rank_failure_propagates_with_rank(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RankFailedError) as err:
            SimEngine(3).run(prog)
        assert 1 in err.value.failures
        assert isinstance(err.value.failures[1], ValueError)

    def test_engine_reusable_and_clocks_reset(self):
        """A rerun on one engine equals a fresh engine's run, bit for bit."""
        eng = SimEngine(3, trace=True)

        def prog(comm, shift):
            comm.send(np.ones(10), (comm.rank + 1) % comm.size)
            comm.recv((comm.rank - 1) % comm.size)
            total = comm.allreduce(np.arange(5, dtype=np.float64) + comm.rank + shift)
            return comm.clock, total.tobytes()

        first = eng.run(prog, 1)
        assert first.time > 0
        eng.tracer.clear()
        second = eng.run(prog, 1)
        fresh = SimEngine(3, trace=True)
        expected = fresh.run(prog, 1)
        assert first.clocks == second.clocks == expected.clocks
        assert first.values == second.values == expected.values
        assert eng.tracer.canonical() == fresh.tracer.canonical()

    def test_deadlock_detection(self):
        eng = SimEngine(2)

        def prog(comm):
            if comm.rank == 0:
                comm.recv(1)  # never sent
            return None

        with pytest.raises(RankFailedError) as err:
            eng.run(prog)
        assert isinstance(err.value.failures[0], DeadlockError)

    def test_concurrent_failures_all_aggregated(self):
        def prog(comm):
            if comm.rank in (1, 3):
                raise ValueError(f"boom {comm.rank}")
            comm.recv((comm.rank + 1) % 4)  # blocks until the abort unblocks it

        with pytest.raises(RankFailedError) as err:
            SimEngine(4).run(prog)
        failures = err.value.failures
        assert isinstance(failures[1], ValueError)
        assert isinstance(failures[3], ValueError)
        assert str(failures[1]) == "boom 1"
        # The interrupted (blocked) ranks surface as deadlock-style
        # interruptions alongside the original failures, never silently.
        for rank, exc in failures.items():
            if rank not in (1, 3):
                assert isinstance(exc, DeadlockError)

    def test_watchdog_names_the_unmatched_receive(self):
        eng = SimEngine(2)

        def prog(comm):
            if comm.rank == 1:
                comm.recv(0, tag=9)  # never sent

        with pytest.raises(RankFailedError) as err:
            eng.run(prog)
        exc = err.value.failures[1]
        assert isinstance(exc, DeadlockError)
        assert str(exc) == (
            "deadlock: rank 1 waits to receive on (('world',), 0, 1, 9) and no "
            "rank can run to send it (likely an unmatched send/recv pair)"
        )

    def test_split_stall_names_the_split(self):
        def prog(comm):
            if comm.rank == 0:
                comm.split(0)  # rank 1 never joins

        with pytest.raises(RankFailedError) as err:
            SimEngine(2).run(prog)
        exc = err.value.failures[0]
        assert isinstance(exc, ConfigurationError)
        assert str(exc) == (
            "deadlock: split coordination on (('world',), 'split', 0) cannot "
            "complete, no rank can run; missing ranks [1]"
        )

    def test_shrink_stall_names_the_shrink(self):
        plan = FaultPlan(crashes=(Crash(2, at_step=0),))

        def prog(comm):
            comm.heartbeat(step=0)  # rank 2 dies here
            if comm.rank == 0:
                try:
                    comm.recv(2)
                except PeerFailedError:
                    comm.shrink()  # rank 1 has already returned

        with pytest.raises(RankFailedError) as err:
            SimEngine(3, faults=plan, supervise=True).run(prog)
        failures = err.value.failures
        assert isinstance(failures[2], SimulatedCrashError)
        assert isinstance(failures[0], ConfigurationError)
        assert str(failures[0]) == (
            "deadlock: shrink coordination on ('shrink', ('world',), 1, (0, 1)) "
            "cannot complete, no rank can run; missing ranks [1]"
        )

    def test_peer_failure_unblocks_waiting_rank(self):
        eng = SimEngine(2)

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.recv(0)  # the abort interrupts it at once

        import time

        t0 = time.monotonic()
        with pytest.raises(RankFailedError):
            eng.run(prog)
        assert time.monotonic() - t0 < 5.0


class TestPointToPoint:
    def test_payload_copied_on_send(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.zeros(4)
                comm.send(data, 1)
                data[:] = 99.0  # must not affect the receiver
                return None
            return comm.recv(0)

        res = SimEngine(2).run(prog)
        np.testing.assert_array_equal(res[1], np.zeros(4))

    def test_message_order_preserved_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1, tag=3)
                return None
            return [comm.recv(0, tag=3) for _ in range(5)]

        assert SimEngine(2).run(prog)[1] == [0, 1, 2, 3, 4]

    def test_tags_isolate_messages(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            # Receive in the opposite tag order.
            return comm.recv(0, tag=2), comm.recv(0, tag=1)

        assert SimEngine(2).run(prog)[1] == ("b", "a")

    def test_python_objects_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"k": [1, 2, 3]}, 1)
                return None
            return comm.recv(0)

        assert SimEngine(2).run(prog)[1] == {"k": [1, 2, 3]}

    def test_bad_peer_rank(self):
        def prog(comm):
            comm.send(1, 5)

        with pytest.raises(RankFailedError) as err:
            SimEngine(2).run(prog)
        assert isinstance(err.value.failures[0], CommunicatorError)

    def test_negative_advance_rejected(self):
        def prog(comm):
            comm.advance(-1.0)

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)


class TestVirtualClock:
    def test_message_timing_postal_model(self):
        m = MachineParams(alpha=1e-3, beta_per_byte=1e-6, element_bytes=4)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.float32), 1)  # 400 bytes
            else:
                comm.recv(0)
            return comm.clock

        res = SimEngine(2, m).run(prog)
        # Receiver lands at alpha + beta * 400 bytes.
        assert res.values[1] == pytest.approx(1e-3 + 1e-6 * 400)
        # Sender paid only the injection latency.
        assert res.values[0] == pytest.approx(1e-3)

    def test_advance_models_local_compute(self):
        def prog(comm):
            comm.advance(2.5)
            return comm.clock

        res = SimEngine(2, cori_knl()).run(prog)
        assert res.clocks == (2.5, 2.5)
        assert res.time == 2.5

    def test_recv_waits_for_late_sender(self):
        m = MachineParams(alpha=1.0, beta_per_byte=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.advance(10.0)  # busy computing before sending
                comm.send(b"x", 1)
            else:
                comm.recv(0)
            return comm.clock

        res = SimEngine(2, m).run(prog)
        assert res.values[1] == pytest.approx(11.0)


class TestPayloadBytes:
    def test_numpy_uses_nbytes(self):
        assert payload_bytes(np.zeros(10, dtype=np.float32)) == 40
        assert payload_bytes(np.zeros((2, 3), dtype=np.float64)) == 48

    def test_scalars_small(self):
        assert payload_bytes(3.14) == 8
        assert payload_bytes(12345) == 8
        assert payload_bytes(True) == 8

    def test_complex_is_two_doubles(self):
        assert payload_bytes(1.0 + 2.0j) == 16

    def test_numpy_scalars_use_dtype_itemsize(self):
        assert payload_bytes(np.float32(1.5)) == 4
        assert payload_bytes(np.int64(3)) == 8
        assert payload_bytes(np.complex128(1j)) == 16
        assert payload_bytes(np.bool_(True)) == 1

    def test_objects_use_pickle_length(self):
        import pickle

        small = payload_bytes({"a": 1})
        big = payload_bytes({"a": list(range(1000))})
        assert big > small > 0
        obj = {"k": [1, 2, 3]}
        assert payload_bytes(obj) == len(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        )

    @pytest.mark.parametrize(
        "payload", [threading.Lock(), (n for n in range(3)), [np.zeros(2), lambda: 0]],
        ids=["lock", "generator", "list-with-lambda"],
    )
    def test_unpicklable_payload_is_refused_not_sized(self, payload):
        with pytest.raises(CommunicatorError, match=type(payload).__name__):
            payload_bytes(payload)

        def prog(comm):
            comm.send(payload, 1 - comm.rank)

        with pytest.raises(RankFailedError) as err:
            SimEngine(2).run(prog)
        assert isinstance(err.value.failures[0], CommunicatorError)

    def test_network_transfer_time(self):
        net = PostalNetwork(MachineParams(alpha=1e-6, beta_per_byte=1e-9))
        assert net.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)
        with pytest.raises(ValueError):
            net.transfer_time(-1)
