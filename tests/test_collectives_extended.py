"""Tests for the extended collectives: Rabenseifner all-reduce and
reduce — results, timings, and cost formulas."""

import numpy as np
import pytest

from repro.collectives.cost import (
    allreduce_rabenseifner,
    allreduce_ring,
    reduce_binomial,
)
from repro.errors import RankFailedError
from repro.machine.params import cori_knl
from repro.simmpi.engine import SimEngine

M = cori_knl()
SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 16]


class TestRabenseifnerResults:
    @pytest.mark.parametrize("size", SIZES)
    def test_sums_correctly(self, size):
        rng = np.random.default_rng(size)
        data = rng.standard_normal((size, 41))

        def prog(comm):
            return comm.allreduce(data[comm.rank].copy(), algorithm="rabenseifner")

        res = SimEngine(size).run(prog)
        for value in res.values:
            np.testing.assert_allclose(value, data.sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_matches_ring_result(self, size):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((size, 100))

        def prog(comm):
            a = comm.allreduce(data[comm.rank].copy(), algorithm="rabenseifner")
            b = comm.allreduce(data[comm.rank].copy(), algorithm="ring")
            return np.max(np.abs(a - b))

        res = SimEngine(size).run(prog)
        assert max(res.values) < 1e-12

    def test_small_array_fewer_elements_than_ranks(self):
        def prog(comm):
            return comm.allreduce(np.array([1.0]), algorithm="rabenseifner")

        res = SimEngine(8).run(prog)
        assert res[0][0] == pytest.approx(8.0)


class TestRabenseifnerTiming:
    def test_emergent_timing_matches_formula_pof2(self):
        p, n = 8, 100_000

        def prog(comm):
            comm.allreduce(np.ones(n, dtype=np.float32), algorithm="rabenseifner")
            return comm.clock

        simulated = SimEngine(p, M).run(prog).time
        predicted = allreduce_rabenseifner(p, n, M).total
        assert simulated == pytest.approx(predicted, rel=0.01)

    def test_lower_latency_than_exact_ring(self):
        """Rabenseifner's log-latency beats the ring's linear latency —
        the reason the paper's ceil(log P) convention is defensible."""
        p = 64
        assert (
            allreduce_rabenseifner(p, 100, M).total
            < allreduce_ring(p, 100, M, exact_latency=True).total
        )

    def test_same_bandwidth_as_ring(self):
        c1 = allreduce_rabenseifner(16, 10**6, M)
        c2 = allreduce_ring(16, 10**6, M)
        assert c1.bandwidth == pytest.approx(c2.bandwidth)


class TestReduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_root_gets_sum_others_none(self, size):
        rng = np.random.default_rng(size)
        data = rng.standard_normal((size, 9))
        root = size // 2

        def prog(comm):
            return comm.reduce(data[comm.rank].copy(), root=root)

        res = SimEngine(size).run(prog)
        np.testing.assert_allclose(res[root], data.sum(axis=0), rtol=1e-12)
        for rank, value in enumerate(res.values):
            if rank != root:
                assert value is None

    def test_rejects_non_array(self):
        def prog(comm):
            comm.reduce([1, 2])  # type: ignore[arg-type]

        with pytest.raises(RankFailedError):
            SimEngine(2).run(prog)

    def test_cost_formula(self):
        c = reduce_binomial(8, 1000, M)
        assert c.latency == pytest.approx(3 * M.alpha)
        assert c.bandwidth == pytest.approx(3 * M.beta * 1000)
