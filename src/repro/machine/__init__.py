"""Machine model: network parameters and single-node compute model.

The paper's evaluation (Section 3, Table 1) fixes a computing platform —
NERSC's Cori, Intel Knights Landing nodes — described entirely by a
network latency ``alpha = 2 us`` and an inverse bandwidth
``beta = 1 / (6 GB/s)``, plus empirically measured single-node epoch
times (their Fig. 4).  This package provides:

* :class:`~repro.machine.params.MachineParams` — the ``(alpha, beta)``
  pair (and a few node-level constants) with the paper's preset
  :func:`~repro.machine.params.cori_knl`.
* :class:`~repro.machine.compute.ComputeModel` — per-iteration compute
  time derived from an epoch-time table, reproducing how the paper
  combines measured compute with analytic communication.
* :mod:`~repro.machine.knl_data` — the embedded Fig.-4-shaped table
  (a documented synthetic substitution for the paper's measured data).
"""

from repro.machine.params import MachineParams, cori_knl
from repro.machine.compute import ComputeModel, EpochTimeTable
from repro.machine.knl_data import KNL_ALEXNET_EPOCH_TABLE, knl_alexnet_table

__all__ = [
    "MachineParams",
    "cori_knl",
    "ComputeModel",
    "EpochTimeTable",
    "KNL_ALEXNET_EPOCH_TABLE",
    "knl_alexnet_table",
]
