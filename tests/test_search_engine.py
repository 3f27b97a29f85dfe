"""Unit tests for the memoized strategy-search engine (repro.search).

The bit-identity *properties* live in ``tests/test_randomized.py`` and
the frozen numbers in ``tests/test_golden_costs.py``; these tests cover
the machinery: cache bookkeeping and invalidation, vectorized table
construction and validation, the in-process sweeps, the
zero-division guards, and the benchmark record/gate.
"""

import dataclasses

import pytest

from repro.core.optimizer import (
    best_strategy,
    enumerate_grids,
    family_specs,
    optimal_placements,
)
from repro.core.pareto import comm_memory_frontier as serial_frontier
from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.core.sweep import ScalingPoint
from repro.core.sweep import strong_scaling_curve as serial_strong
from repro.errors import ConfigurationError, StrategyError
from repro.experiments.common import default_setting
from repro.nn.zoo import mlp
from repro.search import SearchEngine
from repro.search.cache import CostCache, compute_key, machine_key
from repro.search.sweeps import (
    comm_memory_frontier,
    machine_sensitivity,
    strong_scaling_curve,
    weak_scaling_curve,
)
from repro.search.tables import family_cost_table, per_layer_cost_table
from repro.telemetry.metrics import MetricsRegistry

SETTING = default_setting()
NET, MACHINE, COMPUTE = SETTING.network, SETTING.machine, SETTING.compute
DATASET = SETTING.dataset.train_images


class TestCostCache:
    def test_hits_and_misses_counted(self):
        cache = CostCache()
        layer = NET.weighted_layers[0]
        grid = ProcessGrid(4, 2)
        first = cache.terms_lookup(64, grid, MACHINE)(layer, Placement.MODEL)
        assert cache.stats().misses == 1 and cache.stats().hits == 0
        second = cache.terms_lookup(64, grid, MACHINE)(layer, Placement.MODEL)
        assert second == first
        assert cache.stats().hits == 1
        assert cache.stats().hit_rate == 0.5
        assert len(cache) == 1

    def test_machine_key_excludes_cost_irrelevant_fields(self):
        renamed = dataclasses.replace(MACHINE, name="other", flops_peak=1.0)
        assert machine_key(renamed) == machine_key(MACHINE)
        derated = MACHINE.derated(latency_factor=2.0)
        assert machine_key(derated) != machine_key(MACHINE)

    def test_distinct_machines_get_distinct_entries(self):
        cache = CostCache()
        layer = NET.weighted_layers[0]
        grid = ProcessGrid(4, 2)
        a = cache.terms_lookup(64, grid, MACHINE)(layer, Placement.MODEL)
        b = cache.terms_lookup(64, grid, MACHINE.derated(latency_factor=3.0))(
            layer, Placement.MODEL
        )
        assert len(cache) == 2
        assert a != b  # the derated machine really produced other costs

    def test_infeasible_combination_raises_and_is_not_cached(self):
        cache = CostCache()
        layer = NET.weighted_layers[0]
        grid = ProcessGrid(1, 4)
        with pytest.raises(StrategyError):
            cache.terms_lookup(2, grid, MACHINE)(layer, Placement.BATCH)
        assert len(cache) == 0

    def test_compute_time_memoized(self):
        cache = CostCache()
        t1 = cache.compute_time(COMPUTE, 2048, 512)
        t2 = cache.compute_time(COMPUTE, 2048, 512)
        assert t1 == t2 == COMPUTE.share_iteration_time(2048, 512)
        stats = cache.stats()
        assert stats.compute_entries == 1 and stats.hits == 1

    def test_compute_key_distinguishes_tables(self):
        other = dataclasses.replace(COMPUTE, min_local_batch=2)
        assert compute_key(other) != compute_key(COMPUTE)

    def test_metrics_wiring(self):
        registry = MetricsRegistry()
        cache = CostCache(metrics=registry)
        layer = NET.weighted_layers[0]
        grid = ProcessGrid(4, 2)
        cache.terms_lookup(64, grid, MACHINE)(layer, Placement.MODEL)
        cache.terms_lookup(64, grid, MACHINE)(layer, Placement.MODEL)
        counter = registry.counter("search.cache")
        assert counter.value(kind="terms", event="miss") == 1
        assert counter.value(kind="terms", event="hit") == 1

    def test_clear_keeps_history(self):
        cache = CostCache()
        cache.compute_time(COMPUTE, 64, 4)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().lookups == 1


class TestGridCostTable:
    def test_matches_serial_breakdown_per_grid(self):
        grids = enumerate_grids(64, batch=512)
        strategy = Strategy.conv_batch_fc_model(NET, grids[0])
        table = family_cost_table(
            NET, 512, grids, MACHINE,
            placements=strategy.placements, compute_time=0.125, iterations=3.0,
        )
        from repro.core.costs import integrated_cost

        for i, grid in enumerate(grids):
            bd = integrated_cost(
                NET, 512, Strategy.conv_batch_fc_model(NET, grid), MACHINE
            )
            assert float(table.comm_total[i]) == bd.total
            assert float(table.comm_latency[i]) == bd.latency
            assert float(table.comm_bandwidth[i]) == bd.bandwidth
            assert float(table.iter_total[i]) == bd.total + 0.125
            assert float(table.epoch_total[i]) == (bd.total + 0.125) * 3.0
        assert len(table) == len(grids)

    def test_argmin_matches_python_min(self):
        grids = enumerate_grids(64, batch=512)
        strategy = Strategy.same_grid_model(NET, grids[0])
        table = family_cost_table(
            NET, 512, grids, MACHINE,
            placements=strategy.placements, compute_time=0.0, iterations=1.0,
        )
        expected = min(range(len(grids)), key=lambda i: table.epoch_total[i])
        assert table.argmin_epoch() == expected

    def test_validation_errors(self):
        grids = enumerate_grids(8, batch=64)
        placements = (Placement.MODEL,) * NET.num_weighted
        with pytest.raises(StrategyError, match="at least one grid"):
            family_cost_table(
                NET, 64, (), MACHINE,
                placements=placements, compute_time=0.0, iterations=1.0,
            )
        with pytest.raises(StrategyError, match="positive"):
            family_cost_table(
                NET, 0, grids, MACHINE,
                placements=placements, compute_time=0.0, iterations=1.0,
            )
        with pytest.raises(StrategyError, match="placements"):
            family_cost_table(
                NET, 64, grids, MACHINE,
                placements=placements[:2], compute_time=0.0, iterations=1.0,
            )
        with pytest.raises(StrategyError, match="one process count"):
            family_cost_table(
                NET, 64, [ProcessGrid(1, 4), ProcessGrid(1, 8)], MACHINE,
                placements=placements, compute_time=0.0, iterations=1.0,
            )
        with pytest.raises(StrategyError, match="cannot be split"):
            family_cost_table(
                NET, 2, [ProcessGrid(1, 8)], MACHINE,
                placements=placements, compute_time=0.0, iterations=1.0,
            )

    def test_domain_on_fc_network_raises_like_serial(self):
        fc_net = mlp([256, 128, 10])
        placements = (Placement.DOMAIN,) * fc_net.num_weighted
        with pytest.raises(StrategyError, match="fully connected"):
            family_cost_table(
                fc_net, 64, enumerate_grids(8, batch=64), MACHINE,
                placements=placements, compute_time=0.0, iterations=1.0,
            )

    def test_first_failing_layer_in_visit_order_raises(self):
        """Two infeasible layers: the earlier one's error wins, as in the
        scalar layer-by-layer walk."""
        fc_net = mlp([256, 128, 64, 10])
        grids = enumerate_grids(8, batch=4)  # P = 8 > B = 4: BATCH infeasible
        for placements, message in [
            ((Placement.BATCH, Placement.DOMAIN, Placement.MODEL), "placed pure batch"),
            ((Placement.MODEL, Placement.DOMAIN, Placement.BATCH), "fully connected"),
        ]:
            with pytest.raises(StrategyError, match=message) as table_error:
                family_cost_table(
                    fc_net, 4.0, grids, MACHINE,
                    placements=placements, compute_time=0.0, iterations=1.0,
                )
            with pytest.raises(StrategyError) as scalar_error:
                SearchEngine().integrated_cost(
                    fc_net, 4.0, Strategy(grids[0], placements), MACHINE
                )
            assert str(table_error.value) == str(scalar_error.value)

    def test_per_layer_table_matches_serial_placements(self):
        grids = enumerate_grids(256, batch=2048)
        table, placements = per_layer_cost_table(
            NET, 2048, grids, MACHINE, compute_time=0.0, iterations=1.0
        )
        assert len(placements) == len(grids) == len(table)
        for grid, got in zip(grids, placements):
            expected = optimal_placements(NET, 2048, grid, MACHINE)
            assert Strategy(grid, got) == expected


class TestSearchEngineFamilies:
    def test_family_specs_order(self):
        specs = [name for name, _ in family_specs(NET)]
        assert specs == [
            "same_grid_model", "conv_batch_fc_model",
            "conv_domain_fc_model", "per_layer_optimal",
        ]
        specs = [name for name, _ in family_specs(NET, conv_pure_batch=True)]
        assert specs == ["conv_batch_fc_model", "conv_domain_fc_model"]
        fc_only = mlp([64, 32, 10])
        specs = [name for name, _ in family_specs(fc_only)]
        assert specs == [
            "same_grid_model", "conv_batch_fc_model", "per_layer_optimal"
        ]

    def test_engine_max_pc_and_memory_match_serial(self):
        engine = SearchEngine()
        for kwargs in (
            {"max_pc": 16},
            {"max_memory_elements": 3e8},
            {"max_pc": 8, "max_memory_elements": 6e8, "overlap": True},
        ):
            serial = best_strategy(NET, 2048, 512, MACHINE, COMPUTE, **kwargs)
            cached = engine.best_strategy(NET, 2048, 512, MACHINE, COMPUTE, **kwargs)
            assert serial.strategy == cached.strategy
            assert serial.total_epoch == cached.total_epoch

    def test_engine_infeasible_raises_strategy_error(self):
        engine = SearchEngine()
        with pytest.raises(StrategyError, match="no feasible strategy"):
            engine.best_strategy(
                NET, 2048, 512, MACHINE, COMPUTE, max_memory_elements=1.0
            )

    def test_warm_cache_second_search_mostly_hits(self):
        engine = SearchEngine()
        engine.best_strategy(NET, 2048, 512, MACHINE, COMPUTE)
        before = engine.cache_stats()
        engine.best_strategy(NET, 2048, 512, MACHINE, COMPUTE)
        after = engine.cache_stats()
        assert after.misses == before.misses  # nothing new to compute
        assert after.hits > before.hits


class TestParallelSweeps:
    """The engine-backed sweeps run in-process and equal the serial oracle."""

    def test_pool_points_identical_to_serial(self):
        processes = (8, 64, 256)
        serial_points, serial_table = serial_strong(
            NET, 512, processes, MACHINE, COMPUTE, dataset_size=DATASET
        )
        engine_points, engine_table = strong_scaling_curve(
            NET, 512, processes, MACHINE, COMPUTE, dataset_size=DATASET,
            engine=SearchEngine(),
        )
        assert serial_points == engine_points
        assert serial_table.rows == engine_table.rows

    def test_frontier_pool_identical_to_serial(self):
        f1, t1 = serial_frontier(NET, 512, 64, MACHINE)
        f2, t2 = comm_memory_frontier(NET, 512, 64, MACHINE, engine=SearchEngine())
        assert f1 == f2
        assert t1.rows == t2.rows

    def test_sensitivity_order_is_input_order(self):
        machines = [
            MACHINE,
            MACHINE.derated(latency_factor=4.0),
            MACHINE.derated(bandwidth_factor=0.25),
        ]
        points = machine_sensitivity(
            NET, COMPUTE, machines, p=64, batch=512, dataset_size=DATASET,
            engine=SearchEngine(),
        )
        assert [round(pt.alpha_us, 6) for pt in points] == [
            round(m.alpha * 1e6, 6) for m in machines
        ]
        assert [pt.epoch_s for pt in points] == [
            best_strategy(NET, 512, 64, m, COMPUTE, dataset_size=DATASET).total_epoch
            for m in machines
        ]
        assert all(pt.speedup is not None and pt.speedup >= 1.0 for pt in points)

    def test_negative_jobs_rejected(self):
        """``jobs`` is inert: ``None`` and ``1`` run in-process, any other
        value names the removed pool instead of falling back silently."""
        for jobs in (-1, 0, 2):
            with pytest.raises(ConfigurationError, match="process-pool sweep was removed"):
                strong_scaling_curve(
                    NET, 512, (8,), MACHINE, COMPUTE, dataset_size=DATASET, jobs=jobs
                )
            with pytest.raises(ConfigurationError, match="process-pool sweep was removed"):
                weak_scaling_curve(NET, ((8, 64),), MACHINE, COMPUTE, jobs=jobs)
            with pytest.raises(ConfigurationError, match="process-pool sweep was removed"):
                comm_memory_frontier(NET, 512, 8, MACHINE, jobs=jobs)
        with pytest.raises(TypeError):
            machine_sensitivity(NET, COMPUTE, [MACHINE], p=8, batch=64, jobs=1)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            strong_scaling_curve(NET, 512, (), MACHINE, COMPUTE)
        with pytest.raises(ConfigurationError):
            weak_scaling_curve(NET, (), MACHINE, COMPUTE)
        with pytest.raises(ConfigurationError):
            machine_sensitivity(NET, COMPUTE, [], p=8, batch=64)

    def test_domain_errors_propagate_from_pool(self):
        kwargs = dict(dataset_size=DATASET, max_memory_elements=1.0)
        with pytest.raises(StrategyError, match="no feasible strategy") as serial:
            serial_strong(NET, 512, (8, 16), MACHINE, COMPUTE, **kwargs)
        with pytest.raises(StrategyError, match="no feasible strategy") as engine:
            strong_scaling_curve(NET, 512, (8, 16), MACHINE, COMPUTE, **kwargs)
        assert str(engine.value) == str(serial.value)


class TestScalingPointGuards:
    def test_zero_best_total_speedup_is_none(self):
        point = ScalingPoint(
            processes=1, batch=32, best_label="1x1 all-model",
            best_total_s=0.0, pure_batch_total_s=0.0,
        )
        assert point.speedup_vs_pure_batch is None

    def test_zero_best_total_efficiency_is_none(self):
        base = ScalingPoint(
            processes=1, batch=32, best_label="1x1", best_total_s=1.0,
            pure_batch_total_s=1.0,
        )
        degenerate = ScalingPoint(
            processes=4, batch=32, best_label="2x2", best_total_s=0.0,
            pure_batch_total_s=None,
        )
        assert degenerate.parallel_efficiency(base) is None
        assert degenerate.speedup_vs_pure_batch is None

    def test_degenerate_points_render_none_in_tables(self):
        """Table builders must report None ratios for zero-time points
        instead of dividing by zero."""
        from repro.core.sweep import strong_scaling_table, weak_scaling_table

        degenerate = ScalingPoint(
            processes=1, batch=32, best_label="1x1 all-model",
            best_total_s=0.0, pure_batch_total_s=0.0,
        )
        table = strong_scaling_table(mlp([64, 32, 10]), 32, [degenerate])
        assert table.rows[0]["speedup_vs_batch"] is None
        assert table.rows[0]["parallel_efficiency"] is None
        weak = weak_scaling_table(mlp([64, 32, 10]), [degenerate])
        assert weak.rows[0]["speedup_vs_batch"] is None

    def test_normal_points_unaffected(self):
        points, table = serial_strong(
            NET, 512, (8, 64), MACHINE, COMPUTE, dataset_size=DATASET
        )
        assert points[0].speedup_vs_pure_batch > 0
        assert table.rows[0]["parallel_efficiency"] == 1.0
