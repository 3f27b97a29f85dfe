"""Tests for NetworkSpec shape threading and the named network factories."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    ActivationSpec,
    ConvSpec,
    FCSpec,
    NetworkSpec,
    PoolSpec,
    Shape3D,
    alexnet,
    lenet_like,
    mlp,
    resnet_like_stack,
    vgg16,
)
from repro.nn.alexnet import ALEXNET_PARAMS


class TestNetworkSpec:
    def make_tiny(self):
        return NetworkSpec(
            "tiny",
            Shape3D(8, 8, 3),
            [
                ("c1", ConvSpec.square(4, 3, padding=1)),
                ("r1", ActivationSpec()),
                ("p1", PoolSpec(kernel=2, stride=2)),
                ("f1", FCSpec(10)),
            ],
        )

    def test_threads_shapes(self):
        net = self.make_tiny()
        assert net["c1"].out_shape == Shape3D(8, 8, 4)
        assert net["p1"].out_shape == Shape3D(4, 4, 4)
        assert net.output_shape == Shape3D.flat(10)

    def test_auto_flatten_before_fc(self):
        net = self.make_tiny()
        assert net["f1.flatten"].out_shape == Shape3D.flat(64)
        assert net["f1"].in_shape == Shape3D.flat(64)

    def test_weighted_layers_view(self):
        net = self.make_tiny()
        w = net.weighted_layers
        assert [x.name for x in w] == ["c1", "f1"]
        assert w[0].index == 1 and w[1].index == 2
        # FC d_in reflects the post-pool, flattened activation.
        assert w[1].d_in == 64

    def test_fc_kernel_is_whole_input(self):
        """Paper Sec. 2.4: for FC layers k_h = X_H, k_w = X_W."""
        net = self.make_tiny()
        fc = net.weighted_layers[1]
        assert (fc.kernel_h, fc.kernel_w) == (1, 1)  # flat input 1x1x64
        conv = net.weighted_layers[0]
        assert (conv.kernel_h, conv.kernel_w) == (3, 3)

    def test_activation_sizes_chain(self):
        net = self.make_tiny()
        first, *_ = net.weighted_layers
        sizes = (first.d_in, *(w.d_out for w in net.weighted_layers))
        assert sizes == (8 * 8 * 3, 8 * 8 * 4, 10)

    def test_total_params(self):
        net = self.make_tiny()
        assert net.total_params == 3 * 3 * 3 * 4 + 64 * 10

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec("dup", Shape3D.flat(4), [("a", FCSpec(3)), ("a", FCSpec(2))])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec("empty", Shape3D.flat(4), [])

    def test_no_weighted_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec("actonly", Shape3D.flat(4), [ActivationSpec()])

    def test_auto_naming(self):
        net = NetworkSpec("auto", Shape3D.flat(4), [FCSpec(3), ActivationSpec(), FCSpec(2)])
        assert [b.name for b in net] == ["fc1", "activation1", "fc2"]

    def test_getitem_by_index_and_name(self):
        net = self.make_tiny()
        assert net[0].name == "c1"
        assert net["c1"] is net[0]
        with pytest.raises(KeyError):
            net["nope"]

    def test_summary_contains_every_layer(self):
        text = self.make_tiny().summary()
        for name in ("c1", "r1", "p1", "f1"):
            assert name in text


class TestWeightedLayerHash:
    """The hash is the frozen dataclass's, computed once per instance."""

    def test_value_is_the_all_fields_tuple_hash(self):
        for layer in alexnet().weighted_layers:
            fields = tuple(getattr(layer, f.name) for f in dataclasses.fields(layer))
            assert hash(layer) == hash(fields)
            assert hash(layer) == hash(layer)

    def test_equal_layers_from_separate_builds_collide(self):
        a, b = alexnet().weighted_layers, alexnet().weighted_layers
        assert a == b and a[0] is not b[0]
        assert [hash(w) for w in a] == [hash(w) for w in b]
        assert len({*a, *b}) == len(a)

    def test_replace_rehashes_and_memo_stays_out_of_equality(self):
        layer = alexnet().weighted_layers[0]
        hash(layer)
        other = dataclasses.replace(layer, weights=layer.weights + 1)
        assert other != layer and hash(other) != hash(layer)
        assert dataclasses.replace(layer) == layer
        assert "_hash" not in {f.name for f in dataclasses.fields(layer)}

    def test_memo_is_not_pickled(self):
        """String hashes are per-process: a shipped memo would be wrong."""
        layer = alexnet().weighted_layers[0]
        hash(layer)
        clone = pickle.loads(pickle.dumps(layer))
        assert "_hash" not in clone.__dict__
        assert clone == layer and hash(clone) == hash(layer)


class TestCostColumns:
    def test_columns_mirror_the_weighted_layers(self):
        net = alexnet()
        cols = net.cost_columns
        assert cols is net.cost_columns  # built once
        layers = net.weighted_layers
        assert cols.activations.shape == (len(layers), 2, 1)
        assert cols.activations[:, :, 0].tolist() == [[w.d_out, w.d_in] for w in layers]
        assert cols.weights[:, 0].tolist() == [w.weights for w in layers]
        assert cols.weight_counts == tuple(w.weights for w in layers)
        assert cols.halo_width[:, :, 0].tolist() == [
            [w.in_shape.width, w.out_shape.width] for w in layers
        ]
        assert cols.halo_channels[:, :, 0].tolist() == [
            [w.in_shape.channels, w.out_shape.channels] for w in layers
        ]
        assert cols.halo_extent[:, :, 0].tolist() == [[w.halo_rows, w.halo_cols] for w in layers]
        assert cols.conv.tolist() == [w.is_conv for w in layers]
        assert cols.first.tolist() == [True] + [False] * (len(layers) - 1)


class TestAlexNet:
    def test_exact_parameter_count(self):
        net = alexnet()
        assert net.total_params == ALEXNET_PARAMS == 60_954_656

    def test_layer_structure(self):
        net = alexnet()
        assert len(net.conv_layers) == 5
        assert len(net.fc_layers) == 3

    @pytest.mark.parametrize(
        "layer,params,out",
        [
            ("conv1", 34_848, Shape3D(55, 55, 96)),
            ("conv2", 307_200, Shape3D(27, 27, 256)),
            ("conv3", 884_736, Shape3D(13, 13, 384)),
            ("conv4", 663_552, Shape3D(13, 13, 384)),
            ("conv5", 442_368, Shape3D(13, 13, 256)),
            ("fc6", 37_748_736, Shape3D.flat(4096)),
            ("fc7", 16_777_216, Shape3D.flat(4096)),
            ("fc8", 4_096_000, Shape3D.flat(1000)),
        ],
    )
    def test_per_layer(self, layer, params, out):
        net = alexnet()
        assert net[layer].params == params
        assert net[layer].out_shape == out

    def test_ungrouped_variant_is_larger(self):
        assert alexnet(grouped=False).total_params == 62_367_776

    def test_conv4_is_the_eq5_example(self):
        """Sec. 2.2: '3x3 filters on 13x13x384 activations' is conv4."""
        w4 = next(w for w in alexnet().weighted_layers if w.name == "conv4")
        assert w4.in_shape == Shape3D(13, 13, 384)
        assert (w4.kernel_h, w4.kernel_w) == (3, 3)

    def test_flops_in_known_range(self):
        # AlexNet forward is famously ~1.4-1.5 Gflop per image.
        assert 1.3e9 < alexnet().total_flops < 1.6e9


class TestZoo:
    def test_vgg16_parameter_count(self):
        # Canonical VGG-16 conv+fc weight count (no biases): 138.3M.
        assert vgg16().total_params == 138_344_128

    def test_vgg16_structure(self):
        net = vgg16()
        assert len(net.conv_layers) == 13
        assert len(net.fc_layers) == 3

    def test_resnet_like_is_mostly_pointwise(self):
        net = resnet_like_stack(blocks=3)
        pointwise = [w for w in net.conv_layers if w.kernel_h == w.kernel_w == 1]
        assert len(pointwise) == 6  # two 1x1 per bottleneck

    def test_resnet_like_validation(self):
        with pytest.raises(ConfigurationError):
            resnet_like_stack(blocks=0)

    def test_mlp_dims(self):
        net = mlp([784, 300, 100, 10])
        assert [w.weights for w in net.weighted_layers] == [
            784 * 300,
            300 * 100,
            100 * 10,
        ]

    def test_mlp_validation(self):
        with pytest.raises(ConfigurationError):
            mlp([10])

    def test_lenet_like_runs(self):
        net = lenet_like()
        assert net.output_shape == Shape3D.flat(10)
        assert net.num_weighted == 4
