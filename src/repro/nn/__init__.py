"""Network and layer shape algebra (paper Section 2.1, Eq. 2).

The communication analysis consumes only a handful of per-layer
quantities: activation sizes ``d_{i-1}``/``d_i``, parameter counts
``|W_i|``, spatial dims ``X_H, X_W, X_C / Y_H, Y_W, Y_C`` and kernel
sizes ``k_h, k_w``.  This package provides immutable layer *specs*, a
:class:`~repro.nn.network.NetworkSpec` container that threads shapes
through a layer stack, and factories for the networks used in the
evaluation (AlexNet) plus extras for what-if studies (VGG-16, a
1x1-heavy residual-style stack, MLPs).
"""

from repro.nn.layer import (
    Shape3D,
    LayerSpec,
    ActivationSpec,
    DropoutSpec,
    LRNSpec,
    FlattenSpec,
)
from repro.nn.conv import ConvSpec
from repro.nn.fc import FCSpec
from repro.nn.pool import PoolSpec
from repro.nn.network import BoundLayer, NetworkSpec, WeightedLayer
from repro.nn.alexnet import alexnet
from repro.nn.zoo import lenet_like, mlp, resnet_like_stack, vgg16

__all__ = [
    "Shape3D",
    "LayerSpec",
    "ActivationSpec",
    "DropoutSpec",
    "LRNSpec",
    "FlattenSpec",
    "ConvSpec",
    "FCSpec",
    "PoolSpec",
    "BoundLayer",
    "NetworkSpec",
    "WeightedLayer",
    "alexnet",
    "vgg16",
    "resnet_like_stack",
    "mlp",
    "lenet_like",
]
