"""Tests for iteration execution plans (repro.core.plan)."""

import pytest

from repro.core.costs import integrated_cost
from repro.core.plan import build_iteration_plan
from repro.core.strategy import ProcessGrid, Strategy
from repro.errors import StrategyError
from repro.machine.params import cori_knl
from repro.nn import alexnet

NET = alexnet()
M = cori_knl()


def _phase(plan, phase):
    return [s for s in plan.steps if s.phase == phase]


class TestPlanTotals:
    @pytest.mark.parametrize(
        "family,grid",
        [
            (Strategy.same_grid_model, ProcessGrid(8, 64)),
            (Strategy.same_grid_model, ProcessGrid(1, 64)),
            (Strategy.same_grid_model, ProcessGrid(8, 1)),
            (Strategy.conv_batch_fc_model, ProcessGrid(16, 32)),
            (Strategy.conv_domain_fc_model, ProcessGrid(4, 128)),
        ],
    )
    def test_plan_time_equals_cost_model(self, family, grid):
        """The plan is the cost, scheduled: totals must agree exactly."""
        strategy = family(NET, grid)
        plan = build_iteration_plan(NET, 2048, strategy, M)
        cost = integrated_cost(NET, 2048, strategy, M)
        assert plan.total_time == pytest.approx(cost.total, rel=1e-12)

    def test_blocking_time_is_the_forward_allgathers(self):
        strategy = Strategy.same_grid_model(NET, ProcessGrid(8, 64))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        cost = integrated_cost(NET, 2048, strategy, M)
        assert plan.blocking_time == pytest.approx(
            cost.filter("model.allgather_fwd").total
        )


class TestPlanStructure:
    def test_forward_then_backward_order(self):
        strategy = Strategy.same_grid_model(NET, ProcessGrid(4, 16))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        phases = [s.phase for s in plan.steps]
        assert phases == sorted(phases, key=lambda p: 0 if p == "forward" else 1)
        orders = [s.order for s in plan.steps]
        assert orders == sorted(orders)

    def test_forward_layers_in_order_backward_reversed(self):
        strategy = Strategy.same_grid_model(NET, ProcessGrid(4, 16))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        fwd_layers = [s.layer for s in _phase(plan, "forward")]
        assert fwd_layers == [w.name for w in NET.weighted_layers]
        bwd_dw = [s.layer for s in _phase(plan, "backward") if "dW" in s.operation]
        assert bwd_dw == [w.name for w in reversed(NET.weighted_layers)]

    def test_pure_batch_plan_has_only_backward_dw(self):
        strategy = Strategy.same_grid_model(NET, ProcessGrid(1, 64))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        assert _phase(plan, "forward") == []
        assert all("dW" in s.operation for s in plan.steps)
        assert all(s.group == "Pc" for s in plan.steps)

    def test_domain_halos_are_overlappable_pairwise(self):
        strategy = Strategy.conv_domain_fc_model(NET, ProcessGrid(4, 128))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        halos = [s for s in plan.steps if "halo" in s.operation]
        assert halos
        assert all(s.overlappable and s.group == "neighbours" for s in halos)

    def test_first_layer_has_no_dx_step(self):
        strategy = Strategy.same_grid_model(NET, ProcessGrid(4, 16))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        conv1_bwd = [
            s for s in _phase(plan, "backward")
            if s.layer == "conv1" and "dX" in s.operation
        ]
        assert conv1_bwd == []

    def test_table_rendering(self):
        strategy = Strategy.conv_batch_fc_model(NET, ProcessGrid(16, 32))
        plan = build_iteration_plan(NET, 2048, strategy, M)
        text = plan.to_table().to_ascii()
        assert "allreduce(dW)" in text and "allgather(Y)" in text

    def test_infeasible_batch_placement_rejected(self):
        strategy = Strategy.conv_batch_fc_model(NET, ProcessGrid(2, 512))
        with pytest.raises(StrategyError):
            build_iteration_plan(NET, 512, strategy, M)
