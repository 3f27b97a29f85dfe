"""Datasets: ImageNet metadata constants and synthetic generators.

The cost analysis needs only the training-set cardinality and input
shape (Table 1); the executable trainers need deterministic sample
data, which they read in cyclic batch windows (plain minibatch SGD at
a fixed global batch, as in the paper).  Real ImageNet is neither
available nor needed — see DESIGN.md's substitution table.
"""

from repro.data.imagenet import ImageNetMeta, IMAGENET_LSVRC_2012
from repro.data.synthetic import (
    synthetic_classification,
    synthetic_images,
    separable_blobs,
)

__all__ = [
    "ImageNetMeta",
    "IMAGENET_LSVRC_2012",
    "synthetic_classification",
    "synthetic_images",
    "separable_blobs",
]
