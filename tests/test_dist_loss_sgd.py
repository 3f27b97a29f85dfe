"""Tests for losses (column-convention) and the SGD optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.loss import mse_loss_grad, softmax_cross_entropy
from repro.dist.sgd import SGD
from repro.errors import ConfigurationError, ShapeError

RNG = np.random.default_rng(3)


class TestSoftmaxCE:
    def test_uniform_logits_loss_is_log_classes(self):
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(5))

    def test_gradient_numerically(self):
        logits = RNG.standard_normal((4, 3))
        labels = np.array([1, 0, 3])
        _, dz = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for idx in [(0, 0), (1, 1), (3, 2)]:
            lp, lm = logits.copy(), logits.copy()
            lp[idx] += eps
            lm[idx] -= eps
            fp, _ = softmax_cross_entropy(lp, labels)
            fm, _ = softmax_cross_entropy(lm, labels)
            assert dz[idx] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4, abs=1e-8)

    def test_gradient_columns_sum_to_zero(self):
        logits = RNG.standard_normal((6, 5))
        labels = RNG.integers(0, 6, 5)
        _, dz = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(dz.sum(axis=0), 0.0, atol=1e-12)

    def test_numerical_stability_with_large_logits(self):
        logits = np.array([[1000.0], [0.0]])
        loss, dz = softmax_cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.isfinite(dz).all()

    def test_sharding_sums_to_serial(self):
        """Shard losses/grads with global_batch=B add up exactly — the
        property the distributed trainer's row-comm all-reduce relies on."""
        logits = RNG.standard_normal((4, 8))
        labels = RNG.integers(0, 4, 8)
        full_loss, full_dz = softmax_cross_entropy(logits, labels)
        l1, d1 = softmax_cross_entropy(logits[:, :3], labels[:3], global_batch=8)
        l2, d2 = softmax_cross_entropy(logits[:, 3:], labels[3:], global_batch=8)
        assert l1 + l2 == pytest.approx(full_loss, rel=1e-12)
        np.testing.assert_allclose(np.hstack([d1, d2]), full_dz, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros(4), np.array([0]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((4, 2)), np.array([0]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((4, 1)), np.array([9]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((4, 1)), np.array([0]), global_batch=0)


class TestMSE:
    def test_value_and_grad(self):
        p = np.array([[1.0, 2.0]])
        t = np.array([[0.0, 0.0]])
        loss, dp = mse_loss_grad(p, t)
        assert loss == pytest.approx((1 + 4) / (2 * 2))
        np.testing.assert_allclose(dp, [[0.5, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss_grad(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(b=st.integers(2, 10))
    @settings(deadline=None)
    def test_sharding_sums_to_serial(self, b):
        p = RNG.standard_normal((3, b))
        t = RNG.standard_normal((3, b))
        full, _ = mse_loss_grad(p, t)
        half = b // 2
        l1, _ = mse_loss_grad(p[:, :half], t[:, :half], global_batch=b)
        l2, _ = mse_loss_grad(p[:, half:], t[:, half:], global_batch=b)
        assert l1 + l2 == pytest.approx(full, rel=1e-12)


class TestSGD:
    def test_plain_update(self):
        w = np.ones(3)
        SGD(lr=0.5).step([w], [np.array([1.0, 2.0, 3.0])])
        np.testing.assert_allclose(w, [0.5, 0.0, -0.5])

    def test_momentum_accumulates(self):
        w = np.zeros(1)
        opt = SGD(lr=1.0, momentum=0.5)
        g = np.array([1.0])
        opt.step([w], [g])  # v=1, w=-1
        opt.step([w], [g])  # v=1.5, w=-2.5
        assert w[0] == pytest.approx(-2.5)

    def test_reset_clears_momentum(self):
        w = np.zeros(1)
        opt = SGD(lr=1.0, momentum=0.9)
        opt.step([w], [np.array([1.0])])
        opt.reset()
        w2 = np.zeros(1)
        opt.step([w2], [np.array([1.0])])
        assert w2[0] == pytest.approx(-1.0)

    def test_matches_paper_eq1(self):
        """w_{n+1} = w_n - eta * mean-gradient (Eq. 1)."""
        w = RNG.standard_normal(5)
        g = RNG.standard_normal(5)
        expected = w - 0.05 * g
        SGD(lr=0.05).step([w], [g])
        np.testing.assert_allclose(w, expected, rtol=1e-15)

    @pytest.mark.parametrize("kwargs", [dict(lr=0), dict(lr=0.1, momentum=1.0)])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SGD(**kwargs)

    def test_mismatched_lists(self):
        with pytest.raises(ConfigurationError):
            SGD().step([np.zeros(2)], [])

    def test_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            SGD().step([np.zeros(2)], [np.zeros(3)])
