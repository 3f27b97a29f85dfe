"""Tests for the 1.5D distributed layer products (repro.dist.matmul15d):
every product must equal its NumPy counterpart on every grid shape."""

import numpy as np
import pytest

from repro.dist.grid import GridComm
from repro.dist.layers import relu, relu_grad
from repro.dist.loss import softmax_cross_entropy
from repro.dist.matmul15d import (
    backward_dw_15d,
    backward_dx_15d,
    fc_stack_step_15d,
    forward_15d,
    redistribute_15d,
)
from repro.dist.partition import BlockPartition
from repro.errors import RankFailedError
from repro.simmpi.engine import SimEngine

RNG = np.random.default_rng(17)

GRIDS = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (4, 2)]


def run_grid(pr, pc, prog):
    return SimEngine(pr * pc).run(prog)


class TestGridComm:
    def test_coords_row_major(self):
        def prog(comm):
            g = GridComm(comm, 2, 3)
            return g.coords

        res = run_grid(2, 3, prog)
        assert list(res.values) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_subcomm_sizes(self):
        def prog(comm):
            g = GridComm(comm, 2, 3)
            return g.col_comm.size, g.row_comm.size

        for value in run_grid(2, 3, prog).values:
            assert value == (2, 3)

    def test_col_comm_ordered_by_row(self):
        def prog(comm):
            g = GridComm(comm, 3, 2)
            return g.col_comm.rank == g.row, g.row_comm.rank == g.col

        for value in run_grid(3, 2, prog).values:
            assert value == (True, True)

    def test_size_mismatch(self):
        def prog(comm):
            GridComm(comm, 2, 2)

        with pytest.raises(RankFailedError):
            SimEngine(6).run(prog)


@pytest.mark.parametrize("pr,pc", GRIDS)
class TestProducts:
    d_out, d_in, batch = 10, 7, 12

    def _setup(self, comm, pr, pc):
        grid = GridComm(comm, pr, pc)
        w = RNG.standard_normal((self.d_out, self.d_in))  # same on all ranks (seeded)
        x = RNG.standard_normal((self.d_in, self.batch))
        dy = RNG.standard_normal((self.d_out, self.batch))
        return grid, w, x, dy

    def test_forward(self, pr, pc):
        d_out, d_in, batch = self.d_out, self.d_in, self.batch
        w = RNG.standard_normal((d_out, d_in))
        x = RNG.standard_normal((d_in, batch))
        rows = BlockPartition(d_out, pr)
        cols = BlockPartition(batch, pc)

        def prog(comm):
            grid = GridComm(comm, pr, pc)
            w_local = rows.take(w, grid.row, axis=0)
            x_local = cols.take(x, grid.col, axis=1)
            return forward_15d(grid, w_local, x_local)

        res = run_grid(pr, pc, prog)
        expected = w @ x
        for rank, y_local in enumerate(res.values):
            c = rank % pc
            np.testing.assert_allclose(y_local, cols.take(expected, c, axis=1), rtol=1e-12)

    def test_backward_dx(self, pr, pc):
        d_out, d_in, batch = self.d_out, self.d_in, self.batch
        w = RNG.standard_normal((d_out, d_in))
        dy = RNG.standard_normal((d_out, batch))
        rows = BlockPartition(d_out, pr)
        cols = BlockPartition(batch, pc)

        def prog(comm):
            grid = GridComm(comm, pr, pc)
            w_local = rows.take(w, grid.row, axis=0)
            dy_local = cols.take(rows.take(dy, grid.row, axis=0), grid.col, axis=1)
            return backward_dx_15d(grid, w_local, dy_local)

        res = run_grid(pr, pc, prog)
        expected = w.T @ dy
        for rank, dx_local in enumerate(res.values):
            c = rank % pc
            np.testing.assert_allclose(dx_local, cols.take(expected, c, axis=1), rtol=1e-10)

    def test_backward_dw(self, pr, pc):
        d_out, d_in, batch = self.d_out, self.d_in, self.batch
        x = RNG.standard_normal((d_in, batch))
        dy = RNG.standard_normal((d_out, batch))
        rows = BlockPartition(d_out, pr)
        cols = BlockPartition(batch, pc)

        def prog(comm):
            grid = GridComm(comm, pr, pc)
            dy_local = cols.take(rows.take(dy, grid.row, axis=0), grid.col, axis=1)
            x_local = cols.take(x, grid.col, axis=1)
            return backward_dw_15d(grid, dy_local, x_local)

        res = run_grid(pr, pc, prog)
        expected = dy @ x.T
        for rank, dw_local in enumerate(res.values):
            r = rank // pc
            np.testing.assert_allclose(dw_local, rows.take(expected, r, axis=0), rtol=1e-10)


@pytest.mark.parametrize("input_grad", [False, True])
@pytest.mark.parametrize("pr,pc", [(1, 1), (1, 4), (4, 1), (2, 2)])
def test_fc_stack_step_matches_serial(pr, pc, input_grad):
    """The whole Fig. 5 step — loss, every dW block, the input gradient —
    against a plain NumPy forward/backward of the same stack."""
    dims, batch = (7, 10, 6, 5), 12
    rng = np.random.default_rng(23)
    weights = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(3)]
    x = rng.standard_normal((dims[0], batch))
    y = rng.integers(0, dims[-1], batch)

    acts, zs = [x], []
    for i, w in enumerate(weights):
        zs.append(w @ acts[-1])
        acts.append(relu(zs[-1]) if i < 2 else zs[-1])
    loss, dz = softmax_cross_entropy(zs[-1], y)
    grads = [None] * 3
    for i in (2, 1, 0):
        grads[i] = dz @ acts[i].T
        dx = weights[i].T @ dz
        if i > 0:
            dz = relu_grad(zs[i - 1], dx)

    row_parts = [BlockPartition(d, pr) for d in dims[1:]]
    cols = BlockPartition(batch, pc)

    def prog(comm):
        grid = GridComm(comm, pr, pc)
        w_locals = [
            part.take(w, grid.row, axis=0) for part, w in zip(row_parts, weights)
        ]
        return fc_stack_step_15d(
            grid, w_locals, row_parts,
            cols.take(x, grid.col, axis=1), cols.take(y, grid.col),
            batch=batch, step=0, guard=None, input_grad=input_grad,
        )

    for rank, (loss_d, grads_d, dx_d) in enumerate(run_grid(pr, pc, prog).values):
        r, c = divmod(rank, pc)
        assert loss_d == pytest.approx(loss, rel=1e-12)
        for part, got, want in zip(row_parts, grads_d, grads):
            np.testing.assert_allclose(got, part.take(want, r, axis=0), atol=1e-12)
        if input_grad:
            np.testing.assert_allclose(dx_d, cols.take(dx, c, axis=1), atol=1e-12)
        else:
            assert dx_d is None


class TestShapeValidation:
    def test_forward_conformance(self):
        def prog(comm):
            grid = GridComm(comm, 1, 1)
            forward_15d(grid, np.zeros((3, 4)), np.zeros((5, 2)))

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)

    def test_dx_conformance(self):
        def prog(comm):
            grid = GridComm(comm, 1, 1)
            backward_dx_15d(grid, np.zeros((3, 4)), np.zeros((5, 2)))

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)

    def test_dw_conformance(self):
        def prog(comm):
            grid = GridComm(comm, 1, 1)
            backward_dw_15d(grid, np.zeros((3, 4)), np.zeros((5, 2)))

        with pytest.raises(RankFailedError):
            SimEngine(1).run(prog)

    def test_one_grid_per_layer(self):
        def prog(comm):
            grid = GridComm(comm, 1, 1)
            fc_stack_step_15d(
                [grid, grid], [np.zeros((2, 3))], [BlockPartition(2, 1)],
                np.zeros((3, 1)), np.zeros(1, dtype=int),
                batch=1, step=0, guard=None,
            )

        with pytest.raises(RankFailedError, match="2 grids for 1 layers"):
            SimEngine(1).run(prog)

    def test_redistribution_goes_through_the_batch_grid(self):
        def prog(comm):
            redistribute_15d(
                GridComm(comm, 2, 2), GridComm(comm, 4, 1), np.zeros((3, 2)), layer=1
            )

        with pytest.raises(RankFailedError, match="1 x P batch grid"):
            SimEngine(4).run(prog)
