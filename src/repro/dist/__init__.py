"""Executable distributed DNN training on the simulated MPI runtime.

Where :mod:`repro.core` *costs* the paper's algorithms, this package
*runs* them.  It implements, numerically exactly:

* the 1.5D layer products of Fig. 5 — forward ``Y = W X`` with an
  all-gather over the ``Pr`` groups, backward ``dX = W^T dY`` with an
  all-reduce over ``Pr`` and ``dW = dY X^T`` with an all-reduce over
  ``Pc`` (:mod:`~repro.dist.matmul15d`),
* domain-parallel convolution with pairwise halo exchanges, forward and
  backward (Fig. 3; :mod:`~repro.dist.conv_domain`),
* one synchronous-SGD loop (:func:`~repro.dist.train.sgd_program`)
  that trains MLPs on arbitrary ``Pr x Pc`` grids
  (:mod:`~repro.dist.train`), with per-layer grid switching
  (:mod:`~repro.dist.switching`) or elastic recovery
  (:mod:`~repro.dist.elastic`), and CNNs combining domain-parallel
  convolutions, the Eq. 6 redistribution, and 1.5D fully connected
  layers (:mod:`~repro.dist.integrated`),

each validated bit-tight against the serial reference implementations
in :mod:`~repro.dist.layers`.
"""

from repro.dist.partition import BlockPartition
from repro.dist.grid import GridComm
from repro.dist.layers import (
    conv2d_backward,
    conv2d_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    relu,
    relu_grad,
)
from repro.dist.loss import softmax_cross_entropy
from repro.dist.sgd import SGD
from repro.dist.matmul15d import (
    backward_dw_15d,
    backward_dx_15d,
    forward_15d,
)
from repro.dist.conv_domain import DomainConv2D
from repro.dist.train import (
    MLPParams,
    serial_mlp_train,
    distributed_mlp_train,
    sgd_program,
)
from repro.dist.integrated import (
    IntegratedCNNConfig,
    serial_cnn_train,
    distributed_cnn_train,
)
from repro.dist.switching import distributed_switching_mlp_train
from repro.dist.elastic import (
    Checkpoint,
    ElasticResult,
    elastic_mlp_train,
    replan_grid,
)
from repro.dist.summa2d import distribute_2d, summa_matmul, summa_stationary_c

__all__ = [
    "BlockPartition",
    "GridComm",
    "relu",
    "relu_grad",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "softmax_cross_entropy",
    "SGD",
    "forward_15d",
    "backward_dx_15d",
    "backward_dw_15d",
    "DomainConv2D",
    "MLPParams",
    "serial_mlp_train",
    "distributed_mlp_train",
    "Checkpoint",
    "ElasticResult",
    "elastic_mlp_train",
    "replan_grid",
    "sgd_program",
    "IntegratedCNNConfig",
    "serial_cnn_train",
    "distributed_cnn_train",
    "distributed_switching_mlp_train",
    "distribute_2d",
    "summa_stationary_c",
    "summa_matmul",
]
