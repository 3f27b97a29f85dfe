"""Tests for the alpha-beta machine model (repro.machine.params)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.machine.params import MachineParams, cori_knl


class TestMachineParams:
    def test_beta_is_per_element(self):
        m = MachineParams(alpha=1e-6, beta_per_byte=1e-9, element_bytes=4)
        assert m.beta == pytest.approx(4e-9)

    def test_bandwidth_inverse_of_beta(self):
        m = MachineParams(alpha=0.0, beta_per_byte=1.0 / 6e9)
        assert m.bandwidth == pytest.approx(6e9)

    def test_zero_beta_gives_infinite_bandwidth(self):
        m = MachineParams(alpha=1e-6, beta_per_byte=0.0)
        assert math.isinf(m.bandwidth)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-1.0, beta_per_byte=1e-9),
            dict(alpha=1e-6, beta_per_byte=-1e-9),
            dict(alpha=1e-6, beta_per_byte=1e-9, element_bytes=0),
            dict(alpha=1e-6, beta_per_byte=1e-9, flops_peak=0),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            MachineParams(**kwargs)

    def test_derated_scales_both_terms(self):
        m = cori_knl().derated(latency_factor=2.0, bandwidth_factor=0.5)
        base = cori_knl()
        assert m.alpha == pytest.approx(2 * base.alpha)
        assert m.beta_per_byte == pytest.approx(2 * base.beta_per_byte)

    def test_derated_rejects_nonpositive_factors(self):
        with pytest.raises(ConfigurationError):
            cori_knl().derated(latency_factor=0.0)

    def test_derated_machine_slows_the_cost_model(self):
        """Folding topology into (alpha, beta) flows straight through
        the Eq. 4 cost — the paper's Limitations prescription."""
        from repro.core.costs import batch_parallel_cost
        from repro.nn import alexnet

        net = alexnet()
        base_cost = batch_parallel_cost(net, 64, cori_knl()).total
        slow = cori_knl().derated(latency_factor=2.0, bandwidth_factor=0.5)
        assert batch_parallel_cost(net, 64, slow).total > base_cost

    def test_frozen(self):
        with pytest.raises(Exception):
            cori_knl().alpha = 1.0  # type: ignore[misc]


class TestPresets:
    def test_cori_knl_matches_table1(self):
        m = cori_knl()
        assert m.alpha == pytest.approx(2e-6)
        assert m.bandwidth == pytest.approx(6e9)
        assert m.element_bytes == 4
