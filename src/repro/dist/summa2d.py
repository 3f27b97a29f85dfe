"""Executable 2D SUMMA (stationary-C) — the Section-4 baseline.

The paper contrasts its 1.5D layer products against 2D matrix
multiplication algorithms: "The popular stationary-C variant of the 2D
SUMMA algorithm is symmetrical in nature ... When matrices A and B are
of comparable sizes, this is a good fit.  Often in deep learning, one of
the matrices is bigger than the other."  This module implements that
baseline on the simulated runtime so the communication-volume claims can
be *measured*, not just costed:

* ``C = A B`` with all three matrices 2-D block distributed on the
  ``Pr x Pc`` grid — no replication (the memory-optimal layout);
* the shared dimension ``k`` is processed in ``lcm(Pr, Pc)`` panels;
  each step broadcasts one A panel along its grid row and one B panel
  along its grid column, then accumulates a local GEMM.

Per-process receive volume is ``(m/Pr)·k`` words of A plus ``k·(n/Pc)``
words of B — exactly the Section-4 ``|W|/pr + B·d/pc`` when applied to
the forward product ``Y = W X`` — versus the 1.5D algorithm's single
all-gathered activation panel.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dist.abft import inject_unguarded, make_guard
from repro.dist.grid import GridComm
from repro.dist.partition import BlockPartition
from repro.dist.train import trainer_run_record
from repro.errors import PartitionError, ShapeError
from repro.simmpi.engine import resolve_engine
from repro.simmpi.sdc import payload_guard
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "distribute_2d",
    "summa_stationary_c",
    "summa_matmul",
    "summa_train",
    "summa_run_record",
]


def distribute_2d(
    matrix: np.ndarray, grid: GridComm
) -> np.ndarray:
    """This rank's 2-D block of ``matrix``: rows over ``Pr``, cols over ``Pc``."""
    if matrix.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {matrix.shape}")
    rows = BlockPartition(matrix.shape[0], grid.pr)
    cols = BlockPartition(matrix.shape[1], grid.pc)
    return cols.take(rows.take(matrix, grid.row, axis=0), grid.col, axis=1).copy()


def summa_stationary_c(
    grid: GridComm,
    a_local: np.ndarray,
    b_local: np.ndarray,
    m: int,
    k: int,
    n: int,
    *,
    sdc=None,
) -> np.ndarray:
    """Stationary-C SUMMA: returns this rank's ``C`` block.

    ``a_local`` is the rank's block of the ``(m, k)`` matrix A and
    ``b_local`` of the ``(k, n)`` matrix B, both distributed by
    :func:`distribute_2d`.  Requires ``k`` divisible by
    ``lcm(Pr, Pc)`` so every panel lies inside a single block (the
    standard aligned-panel setting).

    ``sdc`` enables ABFT guards: each panel product is checksummed
    (GEMM site ``gemm="summa"``, ``layer`` = panel index) and the panel
    broadcasts travel digest-escorted.
    """
    pr, pc = grid.pr, grid.pc
    steps = math.lcm(pr, pc)
    if k % steps:
        raise PartitionError(
            f"k = {k} must be divisible by lcm(Pr, Pc) = {steps} for aligned panels"
        )
    a_rows = BlockPartition(m, pr)
    a_cols = BlockPartition(k, pc)
    b_rows = BlockPartition(k, pr)
    if a_local.shape != (a_rows.size(grid.row), a_cols.size(grid.col)):
        raise ShapeError(
            f"A block shape {a_local.shape} does not match the grid distribution"
        )
    panels = BlockPartition(k, steps)
    m_i = a_rows.size(grid.row)
    n_j = b_local.shape[1]
    guard = make_guard(sdc)
    c_local = np.zeros((m_i, n_j), dtype=np.result_type(a_local, b_local))
    with span("summa", comm=grid.comm, pr=pr, pc=pc), payload_guard(guard):
        for t in range(steps):
            with span("panel", comm=grid.comm, t=t):
                p0, p1 = panels.bounds(t)
                # A panel: owned by the grid column whose k-block contains it.
                owner_col = a_cols.owner(p0)
                if grid.col == owner_col:
                    off = a_cols.bounds(owner_col)[0]
                    a_panel: Optional[np.ndarray] = np.ascontiguousarray(
                        a_local[:, p0 - off : p1 - off]
                    )
                else:
                    a_panel = None
                a_panel = grid.row_comm.bcast(a_panel, root=owner_col)
                # B panel: owned by the grid row whose k-block contains it.
                owner_row = b_rows.owner(p0)
                if grid.row == owner_row:
                    off = b_rows.bounds(owner_row)[0]
                    b_panel: Optional[np.ndarray] = np.ascontiguousarray(
                        b_local[p0 - off : p1 - off, :]
                    )
                else:
                    b_panel = None
                b_panel = grid.col_comm.bcast(b_panel, root=owner_row)
                if guard is not None:
                    product = guard.protect_block(
                        grid.comm,
                        lambda a=a_panel, b=b_panel: a @ b,
                        layer=t, step=0, gemm="summa",
                    )
                else:
                    product = inject_unguarded(
                        grid.comm, a_panel @ b_panel, layer=t, step=0, gemm="summa"
                    )
                c_local += product
            emit_heartbeat(grid.comm, step=t, phase="summa")
    return c_local


def summa_matmul(
    comm, a: np.ndarray, b: np.ndarray, pr: int, pc: int, *, sdc=None
) -> np.ndarray:
    """Convenience SPMD helper: distribute, multiply, return the C block.

    Every rank passes the same full ``a``/``b`` (mimicking data loaded
    from shared storage); only the local blocks are used for compute and
    communication.
    """
    grid = comm if isinstance(comm, GridComm) else GridComm(comm, pr, pc)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"A {a.shape} and B {b.shape} do not conform")
    a_local = distribute_2d(a, grid)
    b_local = distribute_2d(b, grid)
    return summa_stationary_c(
        grid, a_local, b_local, a.shape[0], a.shape[1], b.shape[1], sdc=sdc
    )


def summa_train(
    a: np.ndarray,
    b: np.ndarray,
    *,
    pr: int,
    pc: int,
    sdc=None,
    engine=None,
):
    """Engine-level SUMMA driver: resolve, run, reassemble full ``C``.

    The 2D baseline counterpart of
    :func:`~repro.dist.train.distributed_mlp_train`: ``engine`` may be
    ``None`` (a default engine) or a prebuilt
    :class:`~repro.simmpi.engine.SimEngine` with ``pr * pc`` ranks,
    which carries the run's machine, tracer and metrics sink.  Returns
    ``(c_full, sim_result, engine)`` so callers can keep the tracer
    handle for :func:`summa_run_record`.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"A {a.shape} and B {b.shape} do not conform")
    engine = resolve_engine(engine, pr * pc)
    result = engine.run(summa_matmul, a, b, pr, pc, sdc=sdc)
    rows = []
    for r in range(pr):
        rows.append(np.hstack([result.values[r * pc + c] for c in range(pc)]))
    c_full = np.vstack(rows)
    return c_full, result, engine


def summa_run_record(
    engine,
    sim,
    *,
    m: int,
    k: int,
    n: int,
    pr: int,
    pc: int,
    sdc=None,
    meta=None,
    host=None,
):
    """Build the :class:`~repro.analysis.record.RunRecord` of a traced SUMMA.

    ``engine``/``sim`` come from running :func:`summa_matmul` (or
    :func:`summa_stationary_c`) on a tracing
    :class:`~repro.simmpi.engine.SimEngine`; the ``(m, k, n)`` problem
    shape is the comparable configuration.
    """
    config = {"m": int(m), "k": int(k), "n": int(n)}
    return trainer_run_record(
        engine, sim, trainer="summa2d", config=config,
        pr=pr, pc=pc, sdc=sdc, meta=meta, host=host,
    )
