"""Tests for the executable collective algorithms (repro.simmpi.collops):
result correctness against naive references, sub-communicators, and
emergent virtual timings against the closed-form cost models."""

import numpy as np
import pytest

from repro.collectives.cost import allgather_bruck as ag_cost
from repro.collectives.cost import allreduce_recursive_doubling as rd_cost
from repro.collectives.cost import allreduce_ring as ar_cost
from repro.errors import RankFailedError
from repro.machine.params import MachineParams, cori_knl
from repro.simmpi.engine import SimEngine

SIZES = [1, 2, 3, 4, 5, 7, 8, 9]


def run(size, prog, machine=None, **kwargs):
    return SimEngine(size, machine, **kwargs).run(prog)


class TestAllGather:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("algorithm", ["bruck", "ring", "naive"])
    def test_gathers_in_rank_order(self, size, algorithm):
        def prog(comm):
            block = np.full((2,), float(comm.rank))
            return comm.allgather(block, algorithm=algorithm)

        res = run(size, prog)
        expected = np.repeat(np.arange(size, dtype=float), 2)
        for value in res.values:
            np.testing.assert_array_equal(value, expected)

    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_gather_along_other_axis(self, size):
        def prog(comm):
            block = np.full((3, 1), float(comm.rank))
            return comm.allgather(block, axis=1)

        res = run(size, prog)
        assert res[0].shape == (3, size)
        np.testing.assert_array_equal(res[0][0], np.arange(size, dtype=float))

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_unequal_blocks(self, size):
        def prog(comm):
            block = np.arange(comm.rank + 1, dtype=float)
            return comm.allgather(block)

        res = run(size, prog)
        expected = np.concatenate([np.arange(r + 1, dtype=float) for r in range(size)])
        np.testing.assert_array_equal(res[0], expected)

    def test_allgather_object(self):
        def prog(comm):
            return comm.allgather_object({"rank": comm.rank})

        res = run(3, prog)
        assert res[1] == [{"rank": 0}, {"rank": 1}, {"rank": 2}]

    def test_unknown_algorithm(self):
        def prog(comm):
            comm.allgather(np.zeros(2), algorithm="hypercube")

        with pytest.raises(RankFailedError):
            run(2, prog)


class TestAllReduce:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("algorithm", ["ring", "rd", "naive"])
    def test_sums_across_ranks(self, size, algorithm):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((size, 13))

        def prog(comm):
            return comm.allreduce(data[comm.rank].copy(), algorithm=algorithm)

        res = run(size, prog)
        expected = data.sum(axis=0)
        for value in res.values:
            np.testing.assert_allclose(value, expected, rtol=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 8])
    def test_preserves_shape(self, size):
        def prog(comm):
            return comm.allreduce(np.ones((3, 4, 2)))

        res = run(size, prog)
        assert res[0].shape == (3, 4, 2)
        np.testing.assert_array_equal(res[0], size * np.ones((3, 4, 2)))

    def test_small_arrays_fewer_elements_than_ranks(self):
        def prog(comm):
            return comm.allreduce(np.array([float(comm.rank)]))

        res = run(7, prog)
        assert res[3][0] == pytest.approx(21.0)

    def test_input_not_mutated(self):
        def prog(comm):
            x = np.full(5, float(comm.rank))
            comm.allreduce(x)
            return x

        res = run(4, prog)
        np.testing.assert_array_equal(res[2], np.full(5, 2.0))

    def test_rejects_non_array(self):
        def prog(comm):
            comm.allreduce([1, 2, 3])  # type: ignore[arg-type]

        with pytest.raises(RankFailedError):
            run(2, prog)


class TestBcastBarrierGather:
    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    @pytest.mark.parametrize("root_frac", [0.0, 0.5, 1.0])
    def test_bcast_from_any_root(self, size, root_frac):
        root = min(size - 1, int(root_frac * size))

        def prog(comm):
            obj = {"v": 42} if comm.rank == root else None
            return comm.bcast(obj, root=root)

        for value in run(size, prog).values:
            assert value == {"v": 42}

    @pytest.mark.parametrize("size", [2, 3, 6])
    def test_gather_at_root(self, size):
        def prog(comm):
            return comm.gather(comm.rank * 2, root=1)

        res = run(size, prog)
        assert res[1] == [2 * r for r in range(size)]
        assert res[0] is None

    @pytest.mark.parametrize("size", [2, 4, 7])
    def test_barrier_synchronises_clocks(self, size):
        def prog(comm):
            comm.advance(float(comm.rank))  # skew the clocks
            comm.barrier()
            return comm.clock

        res = run(size, prog, machine=MachineParams(alpha=0.0, beta_per_byte=0.0))
        # With a free network the barrier aligns everyone to the slowest.
        assert min(res.values) >= size - 1

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_halo_exchange_1d_swaps_boundary_rows(self, size):
        from repro.simmpi import collops

        def prog(comm):
            local = np.arange(12.0).reshape(3, 4) + 100 * comm.rank
            return collops.halo_exchange_1d(comm, local[:1], local[-1:])

        top, bottom = np.arange(4.0), np.arange(8.0, 12.0)
        for rank, (above, below) in enumerate(run(size, prog).values):
            if rank == 0:
                assert above is None
            else:  # the bottom row of the rank above
                np.testing.assert_array_equal(above, [bottom + 100 * (rank - 1)])
            if rank == size - 1:
                assert below is None
            else:  # the top row of the rank below
                np.testing.assert_array_equal(below, [top + 100 * (rank + 1)])


class TestSplit:
    def test_grid_split_2x3(self):
        def prog(comm):
            r, c = divmod(comm.rank, 3)
            row = comm.split(color=r)  # ranks with same r
            col = comm.split(color=c)  # ranks with same c
            row_sum = row.allreduce(np.array([float(comm.rank)]))[0]
            col_sum = col.allreduce(np.array([float(comm.rank)]))[0]
            return row.size, col.size, row_sum, col_sum

        res = run(6, prog)
        for rank, (rs, cs, rsum, csum) in enumerate(res.values):
            r, c = divmod(rank, 3)
            assert (rs, cs) == (3, 2)
            assert rsum == sum(3 * r + j for j in range(3))
            assert csum == c + (c + 3)

    def test_split_key_reorders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        res = run(4, prog)
        assert list(res.values) == [3, 2, 1, 0]

    def test_nested_split(self):
        def prog(comm):
            half = comm.split(color=comm.rank // 4)
            quarter = half.split(color=half.rank // 2)
            return quarter.size, quarter.world_ranks

        res = run(8, prog)
        assert res[0] == (2, (0, 1))
        assert res[7] == (2, (6, 7))

    def test_messages_do_not_cross_communicators(self):
        def prog(comm):
            sub = comm.split(color=0)
            if comm.rank == 0:
                comm.send("world", 1, tag=9)
                sub.send("sub", 1, tag=9)
                return None
            a = sub.recv(0, tag=9)
            b = comm.recv(0, tag=9)
            return a, b

        res = run(2, prog)
        assert res[1] == ("sub", "world")


class TestEmergentTiming:
    """The simulator's virtual timings must match the closed forms.

    All payloads are float32 so that one element = machine.element_bytes.
    """

    def test_ring_allreduce_matches_exact_formula(self):
        m = cori_knl()
        p, n = 8, 80_000

        def prog(comm):
            comm.allreduce(np.ones(n, dtype=np.float32))
            return comm.clock

        res = SimEngine(p, m).run(prog)
        predicted = ar_cost(p, n, m, exact_latency=True).total
        assert res.time == pytest.approx(predicted, rel=0.02)

    def test_bruck_allgather_matches_formula(self):
        m = cori_knl()
        p, n = 8, 80_000

        def prog(comm):
            comm.allgather(np.ones(n // p, dtype=np.float32))
            return comm.clock

        res = SimEngine(p, m).run(prog)
        predicted = ag_cost(p, n, m).total
        assert res.time == pytest.approx(predicted, rel=0.02)

    def test_recursive_doubling_matches_formula_pof2(self):
        m = cori_knl()
        p, n = 8, 50_000

        def prog(comm):
            comm.allreduce(np.ones(n, dtype=np.float32), algorithm="rd")
            return comm.clock

        res = SimEngine(p, m).run(prog)
        predicted = rd_cost(p, n, m).total
        assert res.time == pytest.approx(predicted, rel=0.02)

    def test_ring_beats_rd_for_large_messages_in_simulation(self):
        """The Eq. 4 algorithm choice, observed end-to-end."""
        m = cori_knl()
        p, n = 8, 400_000

        def ring(comm):
            comm.allreduce(np.ones(n, dtype=np.float32), algorithm="ring")
            return comm.clock

        def rd(comm):
            comm.allreduce(np.ones(n, dtype=np.float32), algorithm="rd")
            return comm.clock

        t_ring = SimEngine(p, m).run(ring).time
        t_rd = SimEngine(p, m).run(rd).time
        assert t_ring < t_rd


class TestTracing:
    def test_trace_counts_bruck_rounds(self):
        eng = SimEngine(8, trace=True)

        def prog(comm):
            comm.allgather(np.ones(8, dtype=np.float32))

        eng.run(prog)
        sends = eng.tracer.messages("send")
        # Bruck on 8 ranks: 3 rounds, one send per rank per round.
        assert len(sends) == 24

    def test_trace_volume_of_ring_allreduce(self):
        eng = SimEngine(4, trace=True)
        n = 4000

        def prog(comm):
            comm.allreduce(np.ones(n, dtype=np.float32))

        eng.run(prog)
        per_rank = eng.tracer.by_rank("send")
        # Each rank ships 2 * (p-1)/p * n elements of 4 bytes.
        expected = 2 * (3 / 4) * n * 4
        for rank, sent in per_rank.items():
            assert sent == pytest.approx(expected, rel=0.01)

    def test_trace_disabled_by_default(self):
        eng = SimEngine(2)

        def prog(comm):
            comm.send(b"x", 1 - comm.rank)
            comm.recv(1 - comm.rank)

        eng.run(prog)
        assert eng.tracer.events == ()
