"""Tests for layer specs and the Eq. 2 shape algebra (repro.nn)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.nn.conv import ConvSpec, conv_output_extent
from repro.nn.fc import FCSpec
from repro.nn.layer import ActivationSpec, DropoutSpec, FlattenSpec, LRNSpec, Shape3D
from repro.nn.network import NetworkSpec
from repro.nn.pool import PoolSpec


class TestShape3D:
    def test_size_is_product(self):
        assert Shape3D(13, 13, 384).size == 13 * 13 * 384

    def test_flat_roundtrip(self):
        s = Shape3D(6, 6, 256)
        assert s.flattened() == Shape3D.flat(9216)
        assert s.flattened().is_flat and not s.is_flat

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, dims):
        with pytest.raises(ShapeError):
            Shape3D(*dims)

    def test_str(self):
        assert str(Shape3D(13, 13, 384)) == "13x13x384"
        assert str(Shape3D.flat(4096)) == "4096"


class TestConvOutputExtent:
    def test_alexnet_conv1(self):
        assert conv_output_extent(227, 11, 4, 0) == 55

    def test_same_padding_stride1(self):
        assert conv_output_extent(13, 3, 1, 1) == 13

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv_output_extent(5, 7, 1, 0)

    @given(
        extent=st.integers(1, 64),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
    )
    def test_same_padding_matches_paper_ceiling(self, extent, kernel, stride):
        """Eq. 2: 'with proper padding' the output is ceil(X/s)."""
        if kernel % 2 == 0:
            return
        pad = kernel // 2
        if kernel > extent + 2 * pad:
            return
        out = conv_output_extent(extent, kernel, stride, pad)
        assert out == -(-extent // stride)  # ceil division


class TestConvSpec:
    def test_eq2_param_count(self):
        """|W| = kh * kw * XC * YC for ungrouped convolutions."""
        spec = ConvSpec.square(384, 3, padding=1)
        assert spec.param_count(Shape3D(13, 13, 256)) == 3 * 3 * 256 * 384

    def test_grouped_param_count(self):
        spec = ConvSpec.square(256, 5, padding=2, groups=2)
        assert spec.param_count(Shape3D(27, 27, 96)) == 5 * 5 * 48 * 256

    def test_eq2_output_shape(self):
        spec = ConvSpec.square(96, 11, stride=4)
        assert spec.output_shape(Shape3D(227, 227, 3)) == Shape3D(55, 55, 96)

    def test_flops_counts_two_per_mac(self):
        spec = ConvSpec.square(4, 3)
        out = spec.output_shape(Shape3D(5, 5, 2))
        assert spec.flops(Shape3D(5, 5, 2)) == 2 * 3 * 3 * 2 * out.size

    def test_halo_properties(self):
        """A conv layer's halo is ``floor(k / 2)`` deep, per dimension."""
        net = NetworkSpec(
            "halo", Shape3D(16, 16, 3), [("c", ConvSpec(64, kernel_h=3, kernel_w=5))]
        )
        (layer,) = net.weighted_layers
        assert (layer.halo_rows, layer.halo_cols) == (1, 2)

    def test_channels_not_divisible_by_groups(self):
        spec = ConvSpec.square(64, 3, groups=2)
        with pytest.raises(ShapeError):
            spec.output_shape(Shape3D(8, 8, 3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(out_channels=0, kernel_h=3, kernel_w=3),
            dict(out_channels=8, kernel_h=0, kernel_w=3),
            dict(out_channels=8, kernel_h=3, kernel_w=3, stride=0),
            dict(out_channels=8, kernel_h=3, kernel_w=3, padding=-1),
            dict(out_channels=8, kernel_h=3, kernel_w=3, groups=3),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            ConvSpec(**kwargs)


class TestFCSpec:
    def test_param_count_is_product(self):
        assert FCSpec(4096).param_count(Shape3D.flat(9216)) == 4096 * 9216

    def test_flattens_spatial_input(self):
        spec = FCSpec(10)
        assert spec.param_count(Shape3D(6, 6, 256)) == 10 * 9216
        assert spec.output_shape(Shape3D(6, 6, 256)) == Shape3D.flat(10)

    def test_flops(self):
        assert FCSpec(100).flops(Shape3D.flat(50)) == 2 * 100 * 50

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            FCSpec(0)


class TestPoolSpec:
    def test_alexnet_pools(self):
        pool = PoolSpec(kernel=3, stride=2)
        assert pool.output_shape(Shape3D(55, 55, 96)) == Shape3D(27, 27, 96)
        assert pool.output_shape(Shape3D(27, 27, 256)) == Shape3D(13, 13, 256)

    def test_no_params(self):
        assert PoolSpec(kernel=2, stride=2).param_count(Shape3D(8, 8, 4)) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kernel=0, stride=2),
            dict(kernel=2, stride=0),
            dict(kernel=2, stride=2, padding=-1),
            dict(kernel=2, stride=2, mode="median"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PoolSpec(**kwargs)


class TestParameterFreeSpecs:
    @pytest.mark.parametrize(
        "spec",
        [ActivationSpec(), DropoutSpec(0.5), LRNSpec(), FlattenSpec()],
    )
    def test_no_params(self, spec):
        assert spec.param_count(Shape3D(8, 8, 4)) == 0

    def test_shape_preserving(self):
        s = Shape3D(8, 8, 4)
        assert ActivationSpec().output_shape(s) == s
        assert DropoutSpec().output_shape(s) == s
        assert LRNSpec().output_shape(s) == s
        assert FlattenSpec().output_shape(s) == s.flattened()

    def test_activation_validation(self):
        with pytest.raises(ConfigurationError):
            ActivationSpec("swish")

    def test_dropout_validation(self):
        with pytest.raises(ConfigurationError):
            DropoutSpec(1.0)
