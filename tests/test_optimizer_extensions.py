"""Tests for the optimizer extensions: per-layer optimal placement,
memory-constrained search, and scaling-curve sweeps."""

import pytest

from repro.core.costs import integrated_cost
from repro.core.memory import memory_footprint
from repro.core.optimizer import best_strategy, optimal_placements
from repro.core.overlap import overlapped_time_from_breakdown
from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.core.sweep import strong_scaling_curve
from repro.search.sweeps import weak_scaling_curve
from repro.errors import ConfigurationError, StrategyError
from repro.machine.compute import ComputeModel
from repro.machine.params import cori_knl
from repro.nn import alexnet, mlp

NET = alexnet()
M = cori_knl()
CM = ComputeModel.knl_alexnet()


class TestOptimalPlacements:
    def test_dominates_fixed_families(self):
        """Per-layer optimum must cost no more than any fixed family."""
        for grid in (ProcessGrid(16, 32), ProcessGrid(4, 128), ProcessGrid(2, 2)):
            opt = optimal_placements(NET, 2048, grid, M)
            opt_cost = integrated_cost(NET, 2048, opt, M).total
            for family in (
                Strategy.same_grid_model,
                Strategy.conv_batch_fc_model,
                Strategy.conv_domain_fc_model,
            ):
                fixed_cost = integrated_cost(NET, 2048, family(NET, grid), M).total
                assert opt_cost <= fixed_cost + 1e-15

    def test_alexnet_large_batch_pattern(self):
        """At B=2048 the convolutional layers should leave the model
        path (their Eq. 5 crossovers are far below 2048) while the FC
        layers stay 1.5D (crossovers in the thousands)."""
        strategy = optimal_placements(NET, 2048, ProcessGrid(16, 32), M)
        for w, pl in zip(NET.weighted_layers, strategy.placements):
            if w.is_fc:
                assert pl is Placement.MODEL
            else:
                assert pl is not Placement.MODEL

    def test_small_batch_prefers_model_for_late_convs(self):
        """Below the Eq. 5 crossover (B <= ~13 for conv4/conv5) the
        model placement should win those layers."""
        strategy = optimal_placements(NET, 8, ProcessGrid(4, 2), M)
        by_name = dict(zip([w.name for w in NET.weighted_layers], strategy.placements))
        assert by_name["conv4"] is Placement.MODEL
        assert by_name["conv5"] is Placement.MODEL

    def test_beyond_batch_limit_excludes_batch_placement(self):
        strategy = optimal_placements(NET, 512, ProcessGrid(2, 512), M)
        assert all(pl is not Placement.BATCH for pl in strategy.placements)

    def test_infeasible_grid_rejected(self):
        with pytest.raises(StrategyError):
            optimal_placements(NET, 16, ProcessGrid(1, 32), M)

    def test_mlp_has_no_domain(self):
        net = mlp([128, 64, 10])
        strategy = optimal_placements(net, 64, ProcessGrid(4, 4), M)
        assert all(pl is not Placement.DOMAIN for pl in strategy.placements)

    def test_best_strategy_with_per_layer_never_worse(self):
        plain = best_strategy(NET, 2048, 512, M, CM, per_layer=False)
        with_pl = best_strategy(NET, 2048, 512, M, CM, per_layer=True)
        assert with_pl.total_epoch <= plain.total_epoch + 1e-12


class TestMemoryConstrainedSearch:
    def test_unconstrained_equals_none_limit(self):
        a = best_strategy(NET, 2048, 512, M, CM)
        b = best_strategy(NET, 2048, 512, M, CM, max_memory_elements=1e18)
        assert a.total_epoch == pytest.approx(b.total_epoch)

    def test_tight_limit_forces_model_split(self):
        """Below the full-model footprint, only Pr > 1 grids survive
        (Section 4: 1.5D cuts model replication by Pr)."""
        full = 2 * NET.total_params  # weights + gradients, pure batch floor
        choice = best_strategy(
            NET, 2048, 512, M, CM, max_memory_elements=0.5 * full
        )
        assert choice.grid.pr > 1
        fp = memory_footprint(NET, 2048, choice.strategy)
        assert fp.total <= 0.5 * full

    def test_impossible_limit_raises(self):
        with pytest.raises(StrategyError):
            best_strategy(NET, 2048, 512, M, CM, max_memory_elements=1.0)


class TestScalingCurves:
    def test_strong_curve_monotone_total(self):
        points, table = strong_scaling_curve(NET, 2048, [8, 64, 512], M, CM)
        totals = [pt.best_total_s for pt in points]
        assert totals[0] > totals[1] > totals[2]
        assert len(table) == 3

    def test_strong_curve_marks_pure_batch_limit(self):
        points, _ = strong_scaling_curve(NET, 512, [512, 1024], M, CM)
        assert points[0].pure_batch_total_s is not None
        assert points[1].pure_batch_total_s is None  # P > B: batch infeasible
        assert points[1].speedup_vs_pure_batch is None

    def test_strong_curve_efficiency_column(self):
        _, table = strong_scaling_curve(NET, 2048, [8, 512], M, CM)
        effs = table.column("parallel_efficiency")
        assert effs[0] == pytest.approx(1.0)
        assert 0 < effs[1] <= 1.5

    def test_weak_curve(self):
        points, table = weak_scaling_curve(
            NET, [(64, 256), (256, 1024)], M, CM
        )
        assert len(points) == 2
        assert all(pt.speedup_vs_pure_batch >= 1.0 for pt in points)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            strong_scaling_curve(NET, 2048, [], M, CM)
        with pytest.raises(ConfigurationError):
            weak_scaling_curve(NET, [], M, CM)


class TestCategoryAwareOverlap:
    def test_blocking_allgather_stays_exposed(self):
        grid = ProcessGrid(8, 64)
        bd = integrated_cost(NET, 2048, Strategy.same_grid_model(NET, grid), M)
        compute = 1000.0  # effectively infinite hiding capacity
        t = overlapped_time_from_breakdown(bd, compute)
        blocking = bd.filter("model.allgather_fwd").total
        assert t == pytest.approx(compute + blocking)

    def test_no_compute_means_no_hiding(self):
        grid = ProcessGrid(8, 64)
        bd = integrated_cost(NET, 2048, Strategy.same_grid_model(NET, grid), M)
        assert overlapped_time_from_breakdown(bd, 0.0) == pytest.approx(bd.total)

    def test_domain_strategy_hides_almost_everything(self):
        """Domain layers have no blocking category, so with enough
        compute the whole conv communication hides — the Fig. 10
        mechanism."""
        grid = ProcessGrid(8, 64)
        dom = integrated_cost(NET, 2048, Strategy.conv_domain_fc_model(NET, grid), M)
        compute = 1000.0
        t = overlapped_time_from_breakdown(dom, compute)
        blocking = dom.filter("model.allgather_fwd").total  # FC layers only
        assert t == pytest.approx(compute + blocking)
        assert blocking < 0.1 * dom.total

    def test_validation(self):
        grid = ProcessGrid(2, 2)
        bd = integrated_cost(NET, 2048, Strategy.same_grid_model(NET, grid), M)
        with pytest.raises(ConfigurationError):
            overlapped_time_from_breakdown(bd, -1.0)
        with pytest.raises(ConfigurationError):
            overlapped_time_from_breakdown(bd, 1.0, compute_fraction=1.5)
