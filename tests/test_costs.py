"""Tests for the cost equations (repro.core.costs).

The literal paper formulas (Eqs. 3, 4, 7, 8) are re-implemented here,
independently of the library's term-based machinery, and the two must
agree exactly.
"""

import math

import pytest

from repro.core.costs import (
    batch_parallel_cost,
    domain_parallel_cost,
    integrated_cost,
    integrated_mb_cost,
    model_parallel_cost,
)
from repro.core.strategy import Placement, ProcessGrid, Strategy
from repro.errors import StrategyError
from repro.machine.params import cori_knl
from repro.nn import alexnet, lenet_like, mlp, resnet_like_stack

NET = alexnet()
M = cori_knl()


def lg(p):
    return math.ceil(math.log2(p)) if p > 1 else 0


def eq3_literal(net, B, P, m):
    """Eq. 3: pure model parallel."""
    layers = net.weighted_layers
    total = 0.0
    for w in layers:  # i = 1..L
        total += m.alpha * lg(P) + m.beta * B * (P - 1) / P * w.d_out
    for w in layers[1:]:  # i = 2..L
        total += 2 * (m.alpha * lg(P) + m.beta * B * (P - 1) / P * w.d_in)
    return total


def eq4_literal(net, P, m):
    """Eq. 4: pure batch parallel."""
    return sum(
        2 * (m.alpha * lg(P) + m.beta * (P - 1) / P * w.weights)
        for w in net.weighted_layers
    )


def eq7_literal(net, B, P, m):
    """Eq. 7: pure domain parallel (halos only where convolutions are;
    1x1 convolutions communicate nothing)."""
    total = 0.0
    for w in net.weighted_layers:
        if w.is_conv:
            fwd = B * w.in_shape.width * w.in_shape.channels * (w.kernel_h // 2)
            if fwd > 0:
                total += m.alpha + m.beta * fwd
            bwd = B * w.out_shape.width * w.out_shape.channels * (w.kernel_w // 2)
            if bwd > 0:
                total += m.alpha + m.beta * bwd
        total += 2 * (m.alpha * lg(P) + m.beta * (P - 1) / P * w.weights)
    return total


def eq8_literal(net, B, pr, pc, m):
    """Eq. 8: integrated model + batch (1.5D)."""
    layers = net.weighted_layers
    total = 0.0
    for w in layers:
        total += m.alpha * lg(pr) + m.beta * (B / pc) * (pr - 1) / pr * w.d_out
    for w in layers[1:]:
        total += 2 * (m.alpha * lg(pr) + m.beta * (B / pc) * (pr - 1) / pr * w.d_in)
    for w in layers:
        total += 2 * (m.alpha * lg(pc) + m.beta * (pc - 1) / pc * w.weights / pr)
    return total


class TestLiteralFormulas:
    @pytest.mark.parametrize("net", [NET, lenet_like(), mlp([64, 32, 10])])
    @pytest.mark.parametrize("p", [2, 7, 8, 64])
    def test_eq3(self, net, p):
        got = model_parallel_cost(net, 256, p, M).total
        assert got == pytest.approx(eq3_literal(net, 256, p, M), rel=1e-12)

    @pytest.mark.parametrize("net", [NET, lenet_like()])
    @pytest.mark.parametrize("p", [2, 16, 512])
    def test_eq4(self, net, p):
        got = batch_parallel_cost(net, p, M, batch=2048).total
        assert got == pytest.approx(eq4_literal(net, p, M), rel=1e-12)

    @pytest.mark.parametrize("net", [NET, lenet_like(), resnet_like_stack(blocks=2)])
    @pytest.mark.parametrize("p", [2, 4, 32])
    def test_eq7(self, net, p):
        got = domain_parallel_cost(net, 128, p, M).total
        assert got == pytest.approx(eq7_literal(net, 128, p, M), rel=1e-12)

    @pytest.mark.parametrize("grid", [(2, 4), (4, 2), (16, 32), (3, 5)])
    def test_eq8(self, grid):
        pr, pc = grid
        got = integrated_mb_cost(NET, 2048, ProcessGrid(pr, pc), M).total
        assert got == pytest.approx(eq8_literal(NET, 2048, pr, pc, M), rel=1e-12)


class TestDegeneracies:
    """Eq. 8 must collapse to Eqs. 3/4; Eq. 9 to Eq. 8 when LD is empty."""

    @pytest.mark.parametrize("p", [2, 8, 100, 512])
    def test_eq8_pr1_is_eq4(self, p):
        grid = ProcessGrid(1, p)
        got = integrated_mb_cost(NET, 2048, grid, M).total
        assert got == pytest.approx(eq4_literal(NET, p, M), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 8, 100, 512])
    def test_eq8_pc1_is_eq3(self, p):
        grid = ProcessGrid(p, 1)
        got = integrated_mb_cost(NET, 2048, grid, M).total
        assert got == pytest.approx(eq3_literal(NET, 2048, p, M), rel=1e-12)

    def test_eq9_empty_ld_is_eq8(self):
        grid = ProcessGrid(8, 16)
        s = Strategy.same_grid_model(NET, grid)
        assert integrated_cost(NET, 2048, s, M).total == pytest.approx(
            integrated_mb_cost(NET, 2048, grid, M).total
        )


class TestStructure:
    def test_pure_batch_has_only_dw_terms(self):
        bd = batch_parallel_cost(NET, 64, M, batch=2048)
        assert bd.filter("model.").total == 0.0
        assert bd.filter("domain.").total == 0.0
        assert bd.batch_time == pytest.approx(bd.total)

    def test_pure_model_has_no_dw_terms(self):
        """Eq. 3 has no weight all-reduce: X is fully replicated."""
        md = model_parallel_cost(NET, 2048, 64, M)
        assert md.batch_time == 0.0
        assert md.filter("model.").total == pytest.approx(md.total)

    def test_batch_cost_independent_of_batch_size(self):
        a = batch_parallel_cost(NET, 64, M, batch=64).total
        b = batch_parallel_cost(NET, 64, M, batch=4096).total
        assert a == pytest.approx(b)

    def test_model_cost_scales_with_batch(self):
        a = model_parallel_cost(NET, 256, 16, M)
        b = model_parallel_cost(NET, 512, 16, M)
        assert b.bandwidth == pytest.approx(2 * a.bandwidth)

    def test_first_layer_has_no_dx_allreduce(self):
        md = model_parallel_cost(NET, 256, 8, M)
        first = [t for t in md.terms if t.layer == "conv1"]
        assert {t.category for t in first} == {"model.allgather_fwd"}

    def test_pointwise_conv_has_no_halo(self):
        """Eq. 7: 'for a 1x1 convolution no communication is needed'."""
        net = resnet_like_stack(blocks=1)
        dd = domain_parallel_cost(net, 64, 4, M)
        pointwise = {w.name for w in net.weighted_layers if w.is_conv and w.kernel_h == w.kernel_w == 1}
        for t in dd.terms:
            if t.layer in pointwise:
                assert t.category == "batch.allreduce_dw"

    def test_domain_rejects_fc_layers(self):
        net = mlp([64, 32, 10])
        s = Strategy.uniform(net, ProcessGrid(4, 1), Placement.DOMAIN)
        with pytest.raises(StrategyError):
            integrated_cost(net, 64, s, M)

    def test_infeasible_batch_split_rejected(self):
        s = Strategy.same_grid_model(NET, ProcessGrid(1, 512))
        with pytest.raises(StrategyError):
            integrated_cost(NET, 256, s, M)

    def test_nonpositive_batch_rejected(self):
        s = Strategy.same_grid_model(NET, ProcessGrid(1, 1))
        with pytest.raises(StrategyError):
            integrated_cost(NET, 0, s, M)

    def test_batch_placement_uses_full_p(self):
        """Fig. 7: conv layers run over all P with full |W| volume."""
        grid = ProcessGrid(16, 32)
        s = Strategy.conv_batch_fc_model(NET, grid)
        bd = integrated_cost(NET, 2048, s, M)
        conv1 = [t for t in bd.terms if t.layer == "conv1"]
        assert len(conv1) == 1
        w1 = NET.weighted_layers[0].weights
        expected = 2 * (M.alpha * lg(512) + M.beta * (511 / 512) * w1)
        assert conv1[0].cost.total == pytest.approx(expected)

    def test_breakdown_aggregations_consistent(self):
        grid = ProcessGrid(8, 16)
        bd = integrated_mb_cost(NET, 2048, grid, M)
        assert bd.total == pytest.approx(bd.latency + bd.bandwidth)
        assert bd.total == pytest.approx(sum(bd.by_category().values()))
        assert bd.total == pytest.approx(sum(bd.by_layer().values()))
        assert bd.total == pytest.approx(
            bd.batch_time + bd.filter("model.").total + bd.filter("domain.").total
        )

    def test_filter_by_prefix(self):
        bd = integrated_mb_cost(NET, 2048, ProcessGrid(4, 8), M)
        assert bd.filter("model.", "batch.").total == pytest.approx(bd.total)


class TestCheckpointCostTerms:
    """Closed-form checkpoint terms agree with the erasure codec geometry."""

    DIMS = (8, 10, 6)

    def test_chunk_bytes_matches_erasure_module(self):
        from repro.core.costs import checkpoint_chunk_bytes
        from repro.dist import erasure

        for pr in (1, 2, 3):
            for k in (1, 2, 3):
                for mom in (False, True):
                    assert checkpoint_chunk_bytes(
                        self.DIMS, pr=pr, k=k, momentum=mom
                    ) == erasure.chunk_bytes(self.DIMS, pr, k, mom)

    def test_state_bytes_matches_erasure_module(self):
        from repro.core.costs import checkpoint_state_bytes
        from repro.dist import erasure

        for mom in (False, True):
            for pr in (1, 2, 3):
                assert checkpoint_state_bytes(self.DIMS, momentum=mom) == sum(
                    erasure.block_state_bytes(self.DIMS, pr, row, mom)
                    for row in range(pr)
                )

    def test_erasure_take_is_free_on_the_wire(self):
        from repro.core.costs import checkpoint_cost_terms

        terms = checkpoint_cost_terms(
            self.DIMS, pr=2, pc=4, machine=M, parity=1, mode="erasure"
        )
        assert len(terms.terms) == 1
        (term,) = terms.terms
        assert term.category == "ckpt.parity"
        assert term.cost.total == 0.0
        assert term.volume > 0  # the locally-stored chunk is accounted

    def test_replicate_take_matches_allgather_literal(self):
        from repro.core.costs import checkpoint_cost_terms

        pr, pc = 4, 2
        terms = checkpoint_cost_terms(
            self.DIMS, pr=pr, pc=pc, machine=M, mode="replicate"
        )
        layers = len(self.DIMS) - 1
        assert len(terms.terms) == layers
        total = terms.total
        literal = sum(
            M.alpha * lg(pr)
            + M.beta * (pr - 1) / pr * self.DIMS[i + 1] * self.DIMS[i]
            for i in range(layers)
        )
        assert total == pytest.approx(literal)
        # Momentum doubles the state: one extra term per layer.
        with_v = checkpoint_cost_terms(
            self.DIMS, pr=pr, pc=pc, machine=M, mode="replicate", momentum=True
        )
        assert len(with_v.terms) == 2 * layers

    def test_narrow_grid_falls_back_to_replicate(self):
        from repro.core.costs import checkpoint_cost_terms

        erasure_narrow = checkpoint_cost_terms(
            self.DIMS, pr=2, pc=1, machine=M, parity=1, mode="erasure"
        )
        replicate = checkpoint_cost_terms(
            self.DIMS, pr=2, pc=1, machine=M, mode="replicate"
        )
        assert [t.category for t in erasure_narrow.terms] == [
            t.category for t in replicate.terms
        ]
        assert all(t.category == "ckpt.replicate" for t in erasure_narrow.terms)

    def test_recovery_terms_census_and_fetch(self):
        from repro.core.costs import (
            CKPT_CENSUS_FIELDS,
            checkpoint_chunk_bytes,
            checkpoint_recovery_cost_terms,
        )

        survivors, held, have = 7, (2,) * 7, (1,) * 6 + (0,)
        terms = checkpoint_recovery_cost_terms(
            survivors=survivors, held=held, machine=M,
            dims=self.DIMS, step=4, pr=2, k=3, have=have,
        )
        assert [t.category for t in terms.terms] == ["ckpt.census", "ckpt.fetch"]
        census, fetch = terms.terms
        census_bytes = sum(held) * CKPT_CENSUS_FIELDS * 8
        assert census.volume * 8 == pytest.approx(
            census_bytes * (survivors - 1) / survivors
        )
        shard_bytes = 16 + checkpoint_chunk_bytes(self.DIMS, pr=2, k=3) + 8 * 4
        assert fetch.volume * 8 == pytest.approx(
            sum(have) * shard_bytes * (survivors - 1) / survivors
        )

    def test_validation(self):
        from repro.core.costs import (
            checkpoint_cost_terms,
            checkpoint_recovery_cost_terms,
        )

        with pytest.raises(StrategyError):
            checkpoint_cost_terms(self.DIMS, pr=0, pc=2, machine=M)
        with pytest.raises(StrategyError):
            checkpoint_cost_terms(self.DIMS, pr=2, pc=2, machine=M, mode="nope")
        with pytest.raises(StrategyError):
            checkpoint_recovery_cost_terms(
                survivors=2, held=(1, 1, 1), machine=M
            )
        with pytest.raises(StrategyError):
            checkpoint_recovery_cost_terms(
                survivors=2, held=(1, 1), machine=M, have=(1, 1)
            )  # fetch requested without geometry
