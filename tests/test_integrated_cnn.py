"""Integration tests: integrated domain+batch+model CNN training vs serial."""

import numpy as np
import pytest

from repro.data.synthetic import synthetic_images
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
    serial_cnn_train,
)
from repro.errors import ConfigurationError, ShapeError

CFG = IntegratedCNNConfig(
    in_channels=2,
    height=8,
    width=8,
    conv_channels=(4, 6),
    conv_kernels=(3, 3),
    pool_after=(True, False),
    fc_dims=(20, 5),
)
X, Y = synthetic_images(24, 2, 8, 8, 5, seed=7)
PARAMS = CNNParams.init(CFG, seed=3)
KW = dict(batch=8, steps=4, lr=0.1, momentum=0.9)
SERIAL_P, SERIAL_L = serial_cnn_train(CFG, PARAMS, X, Y, **KW)


class TestConfig:
    def test_feature_count(self):
        # 8x8 -> pool -> 4x4, channels 6 -> 96 features.
        assert CFG.feature_count() == 6 * 4 * 4

    def test_heights_chain(self):
        assert CFG.heights() == (8, 4, 4)

    def test_domain_validation_accepts_aligned(self):
        CFG.validate_for_domain(2)

    def test_domain_validation_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            CFG.validate_for_domain(3)

    def test_domain_validation_rejects_odd_pool_blocks(self):
        cfg = IntegratedCNNConfig(
            in_channels=1, height=6, width=6,
            conv_channels=(2,), conv_kernels=(3,), pool_after=(True,),
            fc_dims=(4,),
        )
        # 6 rows over 2 parts -> local height 3, odd: 2x2 pooling breaks.
        with pytest.raises(ConfigurationError):
            cfg.validate_for_domain(2)
        # 6 over 3 -> local height 2, even: fine.
        cfg.validate_for_domain(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(conv_channels=(4,), conv_kernels=(3, 3), pool_after=(True,)),
            dict(conv_channels=(4,), conv_kernels=(4,), pool_after=(False,)),
            dict(conv_channels=(), conv_kernels=(), pool_after=()),
        ],
    )
    def test_invalid_configs(self, kwargs):
        base = dict(in_channels=1, height=8, width=8, fc_dims=(4,))
        with pytest.raises(ConfigurationError):
            IntegratedCNNConfig(**{**base, **kwargs})


class TestParams:
    def test_shapes(self):
        p = CNNParams.init(CFG, seed=0)
        assert p.conv_weights[0].shape == (4, 2, 3, 3)
        assert p.conv_weights[1].shape == (6, 4, 3, 3)
        assert p.fc_weights[0].shape == (20, 96)
        assert p.fc_weights[1].shape == (5, 20)

    def test_copy_is_deep(self):
        p = CNNParams.init(CFG, seed=0)
        q = p.copy()
        q.conv_weights[0][0, 0, 0, 0] = 123.0
        assert p.conv_weights[0][0, 0, 0, 0] != 123.0


class TestSerial:
    def test_loss_decreases(self):
        _, losses = serial_cnn_train(CFG, PARAMS, X, Y, batch=8, steps=20, lr=0.1)
        assert losses[-1] < losses[0]


@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (2, 4)])
class TestDistributedMatchesSerial:
    def test_losses_and_weights(self, pr, pc):
        dp, dl, _ = distributed_cnn_train(CFG, PARAMS, X, Y, pr=pr, pc=pc, **KW)
        np.testing.assert_allclose(dl, SERIAL_L, rtol=1e-9, atol=1e-12)
        for got, expected in zip(dp.all_params(), SERIAL_P.all_params()):
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


class TestStridedConfig:
    """Strided (downsampling) convolutions in the integrated trainer."""

    CFG = IntegratedCNNConfig(
        in_channels=3, height=16, width=16,
        conv_channels=(6, 8), conv_kernels=(3, 3), pool_after=(False, True),
        conv_strides=(2, 1),
        fc_dims=(24, 5),
    )

    def test_shape_chain(self):
        assert self.CFG.heights() == (16, 8, 4)
        assert self.CFG.feature_count() == 8 * 4 * 4

    def test_default_strides_are_ones(self):
        assert CFG.conv_strides == (1, 1)

    @pytest.mark.parametrize("pr,pc", [(2, 1), (4, 1), (2, 2)])
    def test_matches_serial(self, pr, pc):
        from repro.data.synthetic import synthetic_images

        x, y = synthetic_images(24, 3, 16, 16, 5, seed=21)
        params = CNNParams.init(self.CFG, seed=1)
        sp, sl = serial_cnn_train(self.CFG, params, x, y, batch=8, steps=3, lr=0.1)
        dp, dl, _ = distributed_cnn_train(
            self.CFG, params, x, y, pr=pr, pc=pc, batch=8, steps=3, lr=0.1
        )
        np.testing.assert_allclose(dl, sl, rtol=1e-9)
        for got, expected in zip(dp.all_params(), sp.all_params()):
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)

    def test_stride_misalignment_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegratedCNNConfig(
                in_channels=1, height=9, width=9,
                conv_channels=(2,), conv_kernels=(3,), pool_after=(False,),
                conv_strides=(2,), fc_dims=(4,),
            )

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegratedCNNConfig(
                in_channels=1, height=8, width=8,
                conv_channels=(2,), conv_kernels=(3,), pool_after=(False,),
                conv_strides=(0,), fc_dims=(4,),
            )


class TestDistributedValidation:
    def test_misaligned_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            distributed_cnn_train(CFG, PARAMS, X, Y, pr=3, pc=1, **KW)

    def test_batch_must_divide_over_pc(self):
        with pytest.raises(ConfigurationError):
            distributed_cnn_train(CFG, PARAMS, X, Y, pr=1, pc=3, **KW)

    @pytest.mark.parametrize("trainer", ["serial", "distributed"])
    @pytest.mark.parametrize(
        "x, y, error",
        [
            (X[:4], Y[:4], ConfigurationError),  # batch 8 > 4 samples: a wrapped window
            (X, Y[:-1], ShapeError),  # one label short
            (X[:, 0], Y, ShapeError),  # 3-D images
            (np.concatenate([X, X[:, :1]], axis=1), Y, ShapeError),  # 3 channels, not 2
            (X[:, :, :6, :6], Y, ShapeError),  # 6x6 images, not 8x8
        ],
        ids=["batch-over-samples", "short-y", "3d-x", "3-channels", "6x6-images"],
    )
    def test_inputs_checked_before_any_rank_starts(self, trainer, x, y, error):
        """Both CNN entry points run the shared input check on the sample
        axis 0, so a bad dataset is a typed error, never a silent wrap or
        a RankFailedError from inside the ranks."""
        with pytest.raises(error):
            if trainer == "serial":
                serial_cnn_train(CFG, PARAMS, x, y, **KW)
            else:
                distributed_cnn_train(CFG, PARAMS, x, y, pr=2, pc=2, **KW)

    def test_halo_traffic_present_for_3x3_convs(self):
        from repro.machine.params import cori_knl
        from repro.simmpi.engine import SimEngine

        _, _, res = distributed_cnn_train(
            CFG, PARAMS, X, Y, pr=2, pc=1, batch=8, steps=1, lr=0.1,
            engine=SimEngine(2, cori_knl(), trace=True),
        )
        assert res.time > 0
