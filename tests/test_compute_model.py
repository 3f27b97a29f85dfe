"""Tests for the epoch-time table and compute models (repro.machine.compute)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.machine.compute import ComputeModel, EpochTimeTable
from repro.machine.knl_data import IMAGENET_TRAIN_IMAGES, KNL_ALEXNET_EPOCH_TABLE


class TestEpochTimeTable:
    def test_exact_at_table_points(self):
        t = EpochTimeTable.knl_alexnet()
        for b, secs in KNL_ALEXNET_EPOCH_TABLE.items():
            assert t.epoch_time(b) == pytest.approx(secs)

    def test_loglog_interpolation_between_points(self):
        t = EpochTimeTable({1: 100.0, 4: 25.0})
        # log-log linear between (1,100) and (4,25): at b=2, 50.
        assert t.epoch_time(2) == pytest.approx(50.0)

    def test_clamps_outside_range(self):
        t = EpochTimeTable({2: 10.0, 8: 5.0})
        assert t.epoch_time(1) == pytest.approx(10.0)
        assert t.epoch_time(100) == pytest.approx(5.0)

    def test_iteration_time_definition(self):
        t = EpochTimeTable({256: 3400.0}, dataset_size=IMAGENET_TRAIN_IMAGES)
        assert t.iteration_time(256) == pytest.approx(3400.0 * 256 / 1_200_000)

    def test_best_batch_is_256(self):
        assert EpochTimeTable.knl_alexnet().best_batch() == 256

    def test_fig4_shape_monotone_then_minimum(self):
        """The published Fig. 4 shape: falls to B=256, rises after."""
        t = EpochTimeTable.knl_alexnet()
        batches = [b for b, _ in t.entries]
        below = [b for b in batches if b <= 256]
        above = [b for b in batches if b >= 256]
        for b0, b1 in zip(below, below[1:]):
            assert t.epoch_time(b0) > t.epoch_time(b1)
        for b0, b1 in zip(above, above[1:]):
            assert t.epoch_time(b0) < t.epoch_time(b1)

    @pytest.mark.parametrize(
        "entries,kwargs",
        [
            ({}, {}),
            ({0: 1.0}, {}),
            ({1: -1.0}, {}),
            ({1: 1.0}, {"dataset_size": 0}),
            ([(1, 1.0), (1, 2.0)], {}),
        ],
    )
    def test_invalid_tables(self, entries, kwargs):
        with pytest.raises(ConfigurationError):
            EpochTimeTable(entries, **kwargs)

    def test_rejects_nonpositive_batch_query(self):
        with pytest.raises(ConfigurationError):
            EpochTimeTable.knl_alexnet().epoch_time(0)

    @given(st.floats(min_value=1.0, max_value=4096.0))
    def test_interpolation_within_table_envelope(self, b):
        t = EpochTimeTable.knl_alexnet()
        times = [v for _, v in t.entries]
        eps = 1e-6
        assert min(times) * (1 - eps) <= t.epoch_time(b) <= max(times) * (1 + eps)


class TestComputeModel:
    def test_pure_batch_iteration_time(self):
        cm = ComputeModel.knl_alexnet()
        # B=2048 over P=8 -> 256 samples per process.
        expected = cm.table.iteration_time(256)
        assert cm.share_iteration_time(2048, 8) == pytest.approx(expected)

    def test_local_batch_clamps_at_one(self):
        """A share below one sample is looked up at the b = 1 entry."""
        cm = ComputeModel.knl_alexnet()
        assert cm.share_iteration_time(4, 16) == pytest.approx(
            cm.table.iteration_time(1) * 4 / 16
        )

    def test_share_time_equals_iteration_time_when_b_ge_p(self):
        cm = ComputeModel.knl_alexnet()
        assert cm.share_iteration_time(2048, 512) == pytest.approx(
            cm.table.iteration_time(4)
        )

    def test_share_time_scales_below_one_sample(self):
        """Fig. 10 regime: P > B keeps scaling the per-process share."""
        cm = ComputeModel.knl_alexnet()
        at_b = cm.share_iteration_time(512, 512)
        assert cm.share_iteration_time(512, 1024) == pytest.approx(at_b / 2)
        assert cm.share_iteration_time(512, 4096) == pytest.approx(at_b / 8)

    def test_share_time_monotone_in_p(self):
        cm = ComputeModel.knl_alexnet()
        times = [cm.share_iteration_time(2048, p) for p in (8, 64, 256, 512, 1024)]
        for t0, t1 in zip(times, times[1:]):
            assert t1 < t0

    @pytest.mark.parametrize("args", [(0, 1), (256, 0), (-256, 4)])
    def test_validation(self, args):
        cm = ComputeModel.knl_alexnet()
        with pytest.raises(ConfigurationError):
            cm.share_iteration_time(*args)

    def test_share_validation(self):
        cm = ComputeModel.knl_alexnet()
        with pytest.raises(ConfigurationError):
            cm.share_iteration_time(256, 0)
