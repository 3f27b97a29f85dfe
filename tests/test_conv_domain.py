"""Tests for domain-parallel convolution with halo exchange
(repro.dist.conv_domain) against the serial reference."""

import numpy as np
import pytest

from repro.dist.conv_domain import DomainConv2D
from repro.dist.layers import conv2d_backward, conv2d_forward
from repro.dist.partition import BlockPartition
from repro.errors import ConfigurationError, RankFailedError
from repro.simmpi.engine import SimEngine

RNG = np.random.default_rng(23)


def _run_domain_forward(pd, x, w, k):
    """Run DomainConv2D.forward over pd ranks; reassemble full output."""
    h = x.shape[2]
    part = BlockPartition(h, pd)

    def prog(comm):
        op = DomainConv2D(comm, h, k, k)
        x_local = part.take(x, comm.rank, axis=2)
        return op.forward(x_local, w)

    res = SimEngine(pd).run(prog)
    return np.concatenate(list(res.values), axis=2)


def _run_domain_backward(pd, x, w, dy, k):
    """Run forward+backward; reassemble dx and sum dw partials."""
    h = x.shape[2]
    part = BlockPartition(h, pd)

    def prog(comm):
        op = DomainConv2D(comm, h, k, k)
        x_local = part.take(x, comm.rank, axis=2)
        op.forward(x_local, w)
        dy_local = part.take(dy, comm.rank, axis=2)
        return op.backward(dy_local, w)

    res = SimEngine(pd).run(prog)
    dx = np.concatenate([v[0] for v in res.values], axis=2)
    dw = sum(v[1] for v in res.values)
    return dx, dw


class TestForward:
    @pytest.mark.parametrize("pd", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_serial_same_padding(self, pd, k):
        x = RNG.standard_normal((2, 3, 12, 7))
        w = RNG.standard_normal((4, 3, k, k))
        got = _run_domain_forward(pd, x, w, k)
        expected = conv2d_forward(x, w, stride=1, pad=k // 2)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("pd", [2, 4])
    def test_uneven_row_blocks(self, pd):
        x = RNG.standard_normal((1, 2, 10, 5))  # 10 rows over 4 -> 3,3,2,2
        w = RNG.standard_normal((3, 2, 3, 3))
        got = _run_domain_forward(pd, x, w, 3)
        np.testing.assert_allclose(got, conv2d_forward(x, w, 1, 1), rtol=1e-12)

    def test_pointwise_conv_needs_no_halo(self):
        """1x1 convolutions exchange nothing (Eq. 7)."""
        x = RNG.standard_normal((1, 2, 8, 4))
        w = RNG.standard_normal((3, 2, 1, 1))
        eng = SimEngine(4, trace=True)
        part = BlockPartition(8, 4)

        def prog(comm):
            op = DomainConv2D(comm, 8, 1, 1)
            return op.forward(part.take(x, comm.rank, axis=2), w)

        res = eng.run(prog)
        got = np.concatenate(list(res.values), axis=2)
        np.testing.assert_allclose(got, conv2d_forward(x, w, 1, 0), rtol=1e-12)
        assert sum(e.op == "send" for e in eng.tracer.events) == 0

    def test_halo_volume_matches_eq7(self):
        """Each interior rank ships exactly B * W * C * floor(k/2) rows
        per direction in the forward exchange."""
        b, c, h, wd, k = 2, 3, 12, 5, 3
        x = RNG.standard_normal((b, c, h, wd))
        w = RNG.standard_normal((4, c, k, k))
        eng = SimEngine(2, trace=True)
        part = BlockPartition(h, 2)

        def prog(comm):
            op = DomainConv2D(comm, h, k, k)
            return op.forward(part.take(x, comm.rank, axis=2), w)

        eng.run(prog)
        sends = [e for e in eng.tracer.events if e.op == "send"]
        assert len(sends) == 2  # one per direction across the single boundary
        expected_bytes = b * c * (k // 2) * wd * 8  # float64
        for e in sends:
            assert e.nbytes == expected_bytes


class TestBackward:
    @pytest.mark.parametrize("pd", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_serial(self, pd, k):
        x = RNG.standard_normal((2, 2, 12, 6))
        w = RNG.standard_normal((3, 2, k, k))
        dy = RNG.standard_normal((2, 3, 12, 6))
        dx, dw = _run_domain_backward(pd, x, w, dy, k)
        exp_dx, exp_dw = conv2d_backward(x, w, dy, stride=1, pad=k // 2)
        np.testing.assert_allclose(dx, exp_dx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(dw, exp_dw, rtol=1e-10, atol=1e-12)

    def test_backward_before_forward_rejected(self):
        def prog(comm):
            op = DomainConv2D(comm, 8, 3, 3)
            op.backward(np.zeros((1, 2, 8, 4)), np.zeros((2, 2, 3, 3)))

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)


class TestStrided:
    """Strided downsampling convolutions (the stride>1 extension)."""

    @pytest.mark.parametrize("pd", [1, 2, 4])
    @pytest.mark.parametrize("k,s", [(3, 2), (5, 2), (1, 2), (3, 4)])
    def test_forward_backward_match_serial(self, pd, k, s):
        h = 16
        x = RNG.standard_normal((2, 3, h, 8))
        w = RNG.standard_normal((4, 3, k, k))
        dy = RNG.standard_normal(conv2d_forward(x, w, s, k // 2).shape)
        part = BlockPartition(h, pd)
        opart = BlockPartition(h // s, pd)

        def prog(comm):
            op = DomainConv2D(comm, h, k, k, stride=s)
            y = op.forward(part.take(x, comm.rank, axis=2), w)
            dx, dw = op.backward(opart.take(dy, comm.rank, axis=2), w)
            return y, dx, dw

        res = SimEngine(pd).run(prog)
        y = np.concatenate([v[0] for v in res.values], axis=2)
        dx = np.concatenate([v[1] for v in res.values], axis=2)
        dw = sum(v[2] for v in res.values)
        exp_y = conv2d_forward(x, w, s, k // 2)
        exp_dx, exp_dw = conv2d_backward(x, w, dy, s, k // 2)
        np.testing.assert_allclose(y, exp_y, rtol=1e-10)
        np.testing.assert_allclose(dx, exp_dx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(dw, exp_dw, rtol=1e-10)

    def test_stride2_3x3_needs_no_bottom_halo(self):
        """The downsampling observation: k=3, pad=1, s=2 -> bottom halo 0,
        so only one message crosses each boundary per exchange."""

        def prog(comm):
            op = DomainConv2D(comm, 16, 3, 3, stride=2)
            assert op.top_halo == 1 and op.bottom_halo == 0
            x = RNG.standard_normal((1, 2, op.local_height, 4))
            return op.forward(x, RNG.standard_normal((2, 2, 3, 3))).shape

        eng = SimEngine(2, trace=True)
        eng.run(prog)
        # One downward send per boundary; no upward traffic.
        assert sum(e.op == "send" for e in eng.tracer.events) == 1

    def test_misaligned_height_rejected(self):
        def prog(comm):
            DomainConv2D(comm, 10, 3, 3, stride=2)  # 10 % (2*2) != 0

        with pytest.raises(RankFailedError):
            SimEngine(2).run(prog)

    def test_misaligned_width_rejected(self):
        def prog(comm):
            op = DomainConv2D(comm, 8, 3, 3, stride=2)
            op.forward(np.zeros((1, 1, 8, 5)), np.zeros((1, 1, 3, 3)))

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)

    def test_bad_stride_rejected(self):
        def prog(comm):
            DomainConv2D(comm, 8, 3, 3, stride=0)

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)


class TestValidation:
    def test_even_kernel_rejected(self):
        def prog(comm):
            DomainConv2D(comm, 8, 2, 2)

        with pytest.raises(RankFailedError) as err:
            SimEngine(1).run(prog)
        assert isinstance(err.value.failures[0], ConfigurationError)

    def test_block_thinner_than_halo_rejected(self):
        def prog(comm):
            DomainConv2D(comm, 4, 5, 5)  # 1 row per rank < halo 2

        with pytest.raises(RankFailedError):
            SimEngine(4).run(prog)

    def test_wrong_block_height_rejected(self):
        def prog(comm):
            op = DomainConv2D(comm, 8, 3, 3)
            op.forward(np.zeros((1, 1, 5, 4)), np.zeros((1, 1, 3, 3)))

        with pytest.raises(RankFailedError):
            SimEngine(2).run(prog)

    def test_wrong_kernel_shape_rejected(self):
        def prog(comm):
            op = DomainConv2D(comm, 8, 3, 3)
            op.forward(np.zeros((1, 1, 8, 4)), np.zeros((1, 1, 5, 5)))

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)
