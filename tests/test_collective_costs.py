"""Tests for the closed-form collective cost models (repro.collectives)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.collectives.cost import (
    CollectiveCost,
    allgather_bruck,
    allreduce_recursive_doubling,
    allreduce_ring,
    executed_time,
    halo_exchange,
)
from repro.errors import ConfigurationError
from repro.machine.params import MachineParams, cori_knl


M = MachineParams(alpha=1e-6, beta_per_byte=1e-9, element_bytes=4)  # beta = 4e-9/elt


class TestCollectiveCost:
    def test_total_is_sum(self):
        c = CollectiveCost(1.0, 2.0)
        assert c.total == 3.0

    def test_addition_and_scaling(self):
        c = CollectiveCost(1.0, 2.0, 3) + CollectiveCost(0.5, 0.25, 1)
        assert (c.latency, c.bandwidth, c.messages) == (1.5, 2.25, 4)
        assert (2 * c).total == 2 * c.total
        assert (2 * c).messages == 8

    def test_zero(self):
        assert CollectiveCost.zero().total == 0.0


class TestMessages:
    """``messages`` is the per-rank send count of the executed schedule;
    the paper-convention latency stays ``alpha * ceil(log2 p)``."""

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    def test_bruck_and_ring_counts(self, p):
        rounds = math.ceil(math.log2(p))
        ag, ar = allgather_bruck(p, 100, M), allreduce_ring(p, 100, M)
        assert ag.messages == rounds and ag.latency == M.alpha * rounds
        assert ar.messages == 2 * (p - 1) and ar.latency == M.alpha * (2 * rounds)

    def test_single_process_sends_nothing(self):
        assert allgather_bruck(1, 10, M).messages == allreduce_ring(1, 10, M).messages == 0

    def test_executed_time_of_bruck_is_its_total(self):
        c = allgather_bruck(6, 600, M)
        assert executed_time(c, M) == c.total


class TestAllGather:
    def test_bruck_matches_paper_term(self):
        """alpha*ceil(log P) + beta*n*(P-1)/P — the Eq. 3/8 all-gather."""
        c = allgather_bruck(8, 1000, M)
        assert c.latency == pytest.approx(3 * 1e-6)
        assert c.bandwidth == pytest.approx(4e-9 * 1000 * 7 / 8)

    def test_bruck_nonpower_of_two_rounds_up(self):
        c = allgather_bruck(5, 100, M)
        assert c.latency == pytest.approx(3 * 1e-6)  # ceil(log2 5) = 3

    def test_single_process_is_free(self):
        assert allgather_bruck(1, 1000, M).total == 0.0


class TestAllReduce:
    def test_ring_is_twice_allgather(self):
        """Eq. 4's 'factor of 2 is merely due to the all-reduce algorithm'."""
        ar = allreduce_ring(16, 5000, M)
        ag = allgather_bruck(16, 5000, M)
        assert ar.bandwidth == pytest.approx(2 * ag.bandwidth)
        assert ar.latency == pytest.approx(2 * ag.latency)

    def test_ring_exact_latency_variant(self):
        """The executed ring sends 2(p-1) messages, one alpha each."""
        c = allreduce_ring(16, 5000, M)
        assert c.messages == 2 * 15
        assert executed_time(c, M) == 2 * 15 * 1e-6 + c.bandwidth

    def test_recursive_doubling_power_of_two(self):
        c = allreduce_recursive_doubling(8, 1000, M)
        assert c.latency == pytest.approx(3e-6)
        assert c.bandwidth == pytest.approx(4e-9 * 1000 * 3)

    def test_recursive_doubling_extra_round_when_not_pof2(self):
        c = allreduce_recursive_doubling(6, 1000, M)
        assert c.latency == pytest.approx(4e-6)

    def test_ring_beats_rd_for_large_messages(self):
        """The paper's choice of ring for the 61M-element dW reduction."""
        big = 61_000_000
        assert allreduce_ring(512, big, M).total < allreduce_recursive_doubling(512, big, M).total

    def test_rd_beats_ring_exact_for_tiny_messages(self):
        assert (
            allreduce_recursive_doubling(512, 1, M).total
            < executed_time(allreduce_ring(512, 1, M), M)
        )


class TestOthers:
    def test_halo_exchange_single_message(self):
        c = halo_exchange(500, M)
        assert c.latency == pytest.approx(1e-6)
        assert c.bandwidth == pytest.approx(4e-9 * 500)
        assert c.messages == 1

    @pytest.mark.parametrize(
        "fn", [allgather_bruck, allreduce_ring, allreduce_recursive_doubling]
    )
    def test_validation(self, fn):
        with pytest.raises(ConfigurationError):
            fn(0, 100, M)
        with pytest.raises(ConfigurationError):
            fn(4, -1, M)


class TestProperties:
    @given(p=st.integers(2, 1024), n=st.integers(0, 10**8))
    def test_bandwidth_term_bounded_by_full_volume(self, p, n):
        """(p-1)/p * n never exceeds n; ring all-reduce never exceeds 2n."""
        m = cori_knl()
        assert allgather_bruck(p, n, m).bandwidth <= m.beta * n + 1e-18
        assert allreduce_ring(p, n, m).bandwidth <= 2 * m.beta * n + 1e-18

    @given(p=st.integers(2, 512), n=st.integers(1, 10**7))
    def test_allreduce_bandwidth_increases_with_p(self, p, n):
        m = cori_knl()
        assert allreduce_ring(p + 1, n, m).bandwidth >= allreduce_ring(p, n, m).bandwidth

    @given(n=st.integers(0, 10**7))
    def test_costs_nonnegative(self, n):
        m = cori_knl()
        for p in (1, 2, 7, 64):
            for fn in (allgather_bruck, allreduce_ring, allreduce_recursive_doubling):
                c = fn(p, n, m)
                assert c.latency >= 0 and c.bandwidth >= 0
