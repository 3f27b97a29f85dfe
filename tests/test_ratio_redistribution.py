"""Tests for Eq. 5 (crossover) and Eq. 6 (redistribution)."""

import pytest
from hypothesis import given, strategies as st

from repro.collectives.cost import allgather_bruck
from repro.core.ratio import batch_model_volume_ratio, crossover_batch_size
from repro.core.redistribution import redistribution_cost, redistribution_relative_overhead
from repro.errors import ConfigurationError
from repro.machine.params import cori_knl
from repro.nn import alexnet

M = cori_knl()
UNGROUPED = alexnet(grouped=False)
CONV4 = next(w for w in UNGROUPED.weighted_layers if w.name == "conv4")


class TestEq5:
    def test_conv4_crossover_near_paper_claim(self):
        """Sec. 2.2: model parallelism wins for B <= 12 on conv4.

        Literal Eq. 5 gives B* = 2*3*3*384 / (3*13*13) = 13.63; the
        paper's 'B <= 12' is consistent with that threshold.
        """
        bstar = crossover_batch_size(CONV4)
        assert bstar == pytest.approx(2 * 3 * 3 * 384 / (3 * 13 * 13))
        assert 12 <= bstar <= 14

    def test_conv4_formula_matches_kernel_form(self):
        """2|W|/(3d) == 2 kh kw XC / (3 YH YW) for ungrouped convs."""
        w = CONV4
        kernel_form = 2 * w.kernel_h * w.kernel_w * w.in_shape.channels / (
            3 * w.out_shape.height * w.out_shape.width
        )
        assert crossover_batch_size(w) == pytest.approx(kernel_form)

    def test_model_favourable_below_crossover(self):
        assert batch_model_volume_ratio(CONV4, 12) >= 1.0
        assert batch_model_volume_ratio(CONV4, 14) < 1.0

    def test_fc_layers_strongly_favor_model_at_small_batch(self):
        """FC layers have huge |W| relative to d: batch only wins at
        very large batch sizes."""
        fc6 = next(w for w in UNGROUPED.weighted_layers if w.name == "fc6")
        assert crossover_batch_size(fc6) > 1000

    def test_ratio_definition(self):
        assert batch_model_volume_ratio(CONV4, 64) == pytest.approx(
            2 * CONV4.weights / (3 * 64 * CONV4.d_out)
        )

    def test_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            batch_model_volume_ratio(CONV4, 0)

    @given(batch=st.floats(min_value=0.1, max_value=1e6))
    def test_ratio_inverse_in_batch(self, batch):
        r1 = batch_model_volume_ratio(CONV4, batch)
        r2 = batch_model_volume_ratio(CONV4, 2 * batch)
        assert r2 == pytest.approx(r1 / 2)


class TestEq6:
    def test_cost_is_one_allgather_of_the_input(self):
        w = UNGROUPED.weighted_layers[2]  # conv3
        got = redistribution_cost(w, 256, 16, M)
        expected = allgather_bruck(16, 256 * w.d_in, M)
        assert got.total == pytest.approx(expected.total)

    def test_asymptotically_free_bound(self):
        """The paper: redistribution is 1/3 of the subsequent model step."""
        for w in UNGROUPED.weighted_layers:
            rel = redistribution_relative_overhead(w, 2048, 512, M)
            assert rel == pytest.approx(1.0 / 3.0)

    def test_single_process_free(self):
        w = UNGROUPED.weighted_layers[0]
        assert redistribution_cost(w, 256, 1, M).total == 0.0
        assert redistribution_relative_overhead(w, 256, 1, M) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            redistribution_cost(UNGROUPED.weighted_layers[0], 0, 8, M)

    @given(p=st.integers(2, 1024), batch=st.integers(1, 4096))
    def test_overhead_never_exceeds_one_third(self, p, batch):
        w = UNGROUPED.weighted_layers[3]
        assert redistribution_relative_overhead(w, batch, p, M) <= 1.0 / 3.0 + 1e-12
