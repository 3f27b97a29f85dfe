"""Integration tests: 1.5D distributed MLP SGD vs the serial reference.

The paper's synchronous framework 'obeys the sequential consistency of
the original algorithm' — so losses and final weights must agree with
serial SGD to floating-point accuracy on every grid shape, including
non-power-of-two and uneven-partition grids.
"""

import numpy as np
import pytest

from repro.data.synthetic import separable_blobs, synthetic_classification
from repro.dist.elastic import elastic_mlp_train
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.train import (
    MLPParams,
    distributed_mlp_train,
    serial_mlp_train,
)
from repro.errors import ConfigurationError, ShapeError

X, Y = synthetic_classification(12, 64, 5, seed=42)
PARAMS = MLPParams.init([12, 16, 10, 5], seed=1)
KW = dict(batch=16, steps=6, lr=0.1, momentum=0.9)
SERIAL_W, SERIAL_L = serial_mlp_train(PARAMS, X, Y, **KW)


class TestMLPParams:
    def test_deterministic_init(self):
        a = MLPParams.init([4, 3, 2], seed=7)
        b = MLPParams.init([4, 3, 2], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_dims_roundtrip(self):
        assert MLPParams.init([4, 3, 2]).dims == (4, 3, 2)

    def test_copy_is_deep(self):
        a = MLPParams.init([4, 2])
        b = a.copy()
        b.weights[0][0, 0] = 99.0
        assert a.weights[0][0, 0] != 99.0

    def test_too_few_dims(self):
        with pytest.raises(ConfigurationError):
            MLPParams.init([4])


class TestSerialTrainer:
    def test_loss_decreases_on_separable_data(self):
        x, y = separable_blobs(8, 128, 4, seed=2)
        params = MLPParams.init([8, 16, 4], seed=3)
        _, losses = serial_mlp_train(params, x, y, batch=32, steps=30, lr=0.2)
        assert losses[-1] < 0.5 * losses[0]

    def test_does_not_mutate_input_params(self):
        before = PARAMS.weights[0].copy()
        serial_mlp_train(PARAMS, X, Y, **KW)
        np.testing.assert_array_equal(PARAMS.weights[0], before)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            serial_mlp_train(PARAMS, X[0], Y, **KW)
        with pytest.raises(ShapeError):
            serial_mlp_train(PARAMS, X, Y[:-1], **KW)
        with pytest.raises(ConfigurationError):
            serial_mlp_train(PARAMS, X, Y, batch=1000, steps=1)


@pytest.mark.parametrize(
    "train",
    [
        serial_mlp_train,
        lambda *a, **kw: distributed_mlp_train(*a, pr=2, pc=2, **kw),
        lambda *a, **kw: elastic_mlp_train(*a, pr=2, pc=2, **kw),
        lambda *a, **kw: distributed_switching_mlp_train(
            *a, placements=("batch", "model", "model"), pr=2, pc=2, **kw
        ),
    ],
    ids=["serial", "distributed", "elastic", "switching"],
)
class TestEveryEntryPointRejectsBadInputs:
    """The distributed trainers used to wrap batch windows silently over
    inputs the serial oracle rejects."""

    def test_one_dimensional_x(self, train):
        with pytest.raises(ShapeError, match="features, samples"):
            train(PARAMS, X[0], Y, batch=16, steps=1)

    def test_feature_count_mismatch(self, train):
        """A sample narrower than the first layer fails as a typed error
        before any rank starts, not as a NumPy or rank failure."""
        with pytest.raises(ShapeError, match="the model takes"):
            train(PARAMS, X[:-1], Y, batch=16, steps=1)

    def test_label_count_mismatch(self, train):
        with pytest.raises(ShapeError, match="y shape"):
            train(PARAMS, X, Y[:-1], batch=16, steps=1)

    def test_batch_larger_than_dataset(self, train):
        with pytest.raises(ConfigurationError, match=r"must lie in \[1, 64\]"):
            train(PARAMS, X, Y, batch=65, steps=1)


@pytest.mark.parametrize("pr,pc", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
class TestDistributedMatchesSerial:
    def test_losses_match(self, pr, pc):
        _, losses, _ = distributed_mlp_train(PARAMS, X, Y, pr=pr, pc=pc, **KW)
        np.testing.assert_allclose(losses, SERIAL_L, rtol=1e-10, atol=1e-13)

    def test_weights_match(self, pr, pc):
        weights, _, _ = distributed_mlp_train(PARAMS, X, Y, pr=pr, pc=pc, **KW)
        for got, expected in zip(weights, SERIAL_W.weights):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


class TestDistributedDetails:
    def test_uneven_row_partition(self):
        """d=10 rows over Pr=3 exercises the remainder path."""
        params = MLPParams.init([12, 10, 5], seed=4)
        sw, sl = serial_mlp_train(params, X, Y, batch=16, steps=4, lr=0.05)
        dw, dl, _ = distributed_mlp_train(params, X, Y, pr=3, pc=2, batch=16, steps=4, lr=0.05)
        np.testing.assert_allclose(dl, sl, rtol=1e-10)
        for got, expected in zip(dw, sw.weights):
            np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_uneven_batch_partition(self):
        """B=18 over Pc=4 gives shards of 5,5,4,4."""
        sw, sl = serial_mlp_train(PARAMS, X, Y, batch=18, steps=3, lr=0.05)
        dw, dl, _ = distributed_mlp_train(PARAMS, X, Y, pr=1, pc=4, batch=18, steps=3, lr=0.05)
        np.testing.assert_allclose(dl, sl, rtol=1e-10)

    def test_simulated_time_positive_for_multi_rank(self):
        _, _, res = distributed_mlp_train(PARAMS, X, Y, pr=2, pc=2, **KW)
        assert res.time > 0

    def test_eq5_regimes_visible_in_simulated_time(self):
        """Eq. 5's two regimes, observed end-to-end: with a large batch
        the activation traffic dominates and batch parallelism is faster;
        with a tiny batch the weight traffic dominates and model
        parallelism is faster."""
        x, y = synthetic_classification(64, 512, 10, seed=8)
        params = MLPParams.init([64, 512, 10], seed=9)
        big = dict(batch=512, steps=2, lr=0.05)
        _, _, res_batch = distributed_mlp_train(params, x, y, pr=1, pc=4, **big)
        _, _, res_model = distributed_mlp_train(params, x, y, pr=4, pc=1, **big)
        assert res_batch.time < res_model.time

        small = dict(batch=4, steps=2, lr=0.05)
        _, _, res_batch_s = distributed_mlp_train(params, x, y, pr=1, pc=4, **small)
        _, _, res_model_s = distributed_mlp_train(params, x, y, pr=4, pc=1, **small)
        assert res_model_s.time < res_batch_s.time
