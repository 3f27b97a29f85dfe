"""Tests for process grids and strategies (repro.core.strategy)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.errors import ConfigurationError, StrategyError
from repro.nn import alexnet, mlp


NET = alexnet()


class TestProcessGrid:
    def test_p_is_product(self):
        assert ProcessGrid(16, 32).p == 512

    def test_factorizations_of_12(self):
        grids = ProcessGrid.factorizations(12)
        assert [(g.pr, g.pc) for g in grids] == [
            (1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)
        ]

    def test_factorizations_of_prime(self):
        assert [(g.pr, g.pc) for g in ProcessGrid.factorizations(7)] == [(1, 7), (7, 1)]

    @given(p=st.integers(1, 500))
    def test_factorizations_cover_all_divisor_pairs(self, p):
        grids = ProcessGrid.factorizations(p)
        assert all(g.p == p for g in grids)
        divisors = [d for d in range(1, p + 1) if p % d == 0]
        assert len(grids) == len(divisors)

    def test_factorizations_equal_the_brute_force_definition(self):
        """The sqrt(P) enumeration returns the O(P) definition's tuple."""
        for p in [*range(1, 4097), 16384, 16381, 3600, 30030]:
            pairs = [(g.pr, g.pc) for g in ProcessGrid.factorizations(p)]
            assert pairs == [(d, p // d) for d in range(1, p + 1) if p % d == 0], p

    @pytest.mark.parametrize("p", [1, 2, 16381, 3600, 16384, 30030])
    def test_factorizations_strictly_increasing_pr(self, p):
        prs = [g.pr for g in ProcessGrid.factorizations(p)]
        assert all(a < b for a, b in zip(prs, prs[1:]))
        assert prs[0] == 1 and prs[-1] == p

    def test_factorizations_of_square_has_one_diagonal_grid(self):
        grids = ProcessGrid.factorizations(3600)
        assert len(grids) == 45
        assert sum(g.pr == g.pc for g in grids) == 1
        assert ProcessGrid(60, 60) in grids

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ProcessGrid(0, 4)
        with pytest.raises(ConfigurationError):
            ProcessGrid.factorizations(0)
        with pytest.raises(ConfigurationError, match="P must be >= 1, got -3"):
            ProcessGrid.factorizations(-3)

    def test_str(self):
        assert str(ProcessGrid(16, 32)) == "16x32"


class TestStrategy:
    def test_uniform_covers_all_layers(self):
        s = Strategy.same_grid_model(NET, ProcessGrid(2, 4))
        assert len(s.placements) == NET.num_weighted
        assert all(p is Placement.MODEL for p in s.placements)

    def test_conv_batch_fc_model(self):
        s = Strategy.conv_batch_fc_model(NET, ProcessGrid(2, 4))
        kinds = [w.kind for w in NET.weighted_layers]
        for kind, pl in zip(kinds, s.placements):
            assert pl is (Placement.BATCH if kind == "conv" else Placement.MODEL)

    def test_conv_domain_fc_model(self):
        s = Strategy.conv_domain_fc_model(NET, ProcessGrid(2, 4))
        assert s.placements.count(Placement.DOMAIN) == 5
        assert s.placements.count(Placement.MODEL) == 3

    def test_check_matches(self):
        s = Strategy.same_grid_model(NET, ProcessGrid(2, 2))
        s.check_matches(NET)
        other = mlp([10, 5, 2])
        with pytest.raises(StrategyError):
            s.check_matches(other)

    def test_empty_placements_rejected(self):
        with pytest.raises(StrategyError):
            Strategy(ProcessGrid(1, 1), ())

    def test_non_placement_rejected(self):
        with pytest.raises(StrategyError):
            Strategy(ProcessGrid(1, 1), ("model",))  # type: ignore[arg-type]

    def test_describe(self):
        s = Strategy.conv_batch_fc_model(NET, ProcessGrid(16, 32))
        text = s.describe()
        assert "16x32" in text and "batch:5" in text and "model:3" in text
