"""Network container: threads shapes through a layer stack.

:class:`NetworkSpec` resolves every layer's input/output shape once at
construction (:class:`BoundLayer`) and exposes the *weighted-layer view*
(:class:`WeightedLayer`) consumed by the communication cost models —
the paper's sums run over the ``L`` weighted (conv/FC) layers, with
``d_{i-1}``/``d_i`` the activation counts entering/leaving layer ``i``
and ``|W_i|`` its parameter count.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, List, NamedTuple, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.conv import ConvSpec
from repro.nn.fc import FCSpec
from repro.nn.layer import FlattenSpec, LayerSpec, Shape3D

__all__ = ["BoundLayer", "WeightedLayer", "LayerColumns", "NetworkSpec"]

LayerLike = Union[LayerSpec, Tuple[str, LayerSpec]]


@dataclasses.dataclass(frozen=True)
class BoundLayer:
    """A layer spec with its resolved shapes within a specific network."""

    index: int
    name: str
    spec: LayerSpec
    in_shape: Shape3D
    out_shape: Shape3D

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def params(self) -> int:
        return self.spec.param_count(self.in_shape)

    @property
    def flops(self) -> int:
        return self.spec.flops(self.in_shape)


@dataclasses.dataclass(frozen=True)
class WeightedLayer:
    """The per-layer quantities the paper's cost equations consume.

    Attributes
    ----------
    index:
        1-based position among weighted layers (the paper's ``i``).
    d_in, d_out:
        ``d_{i-1}`` and ``d_i``: activation counts per sample entering /
        leaving the layer's affine transform.
    weights:
        ``|W_i|``, the parameter count.
    in_shape, out_shape:
        Full 3-D shapes (``X_H, X_W, X_C`` / ``Y_H, Y_W, Y_C``).
    kernel_h, kernel_w:
        Filter extent; for FC layers the paper sets ``k_h = X_H`` and
        ``k_w = X_W`` (the halo covers the whole input), which is what
        makes domain parallelism unattractive there.
    """

    index: int
    name: str
    kind: str
    d_in: int
    d_out: int
    weights: int
    in_shape: Shape3D
    out_shape: Shape3D
    kernel_h: int
    kernel_w: int
    stride: int
    groups: int
    flops: int

    @property
    def is_conv(self) -> bool:
        return self.kind == "conv"

    @property
    def is_fc(self) -> bool:
        return self.kind == "fc"

    @property
    def halo_rows(self) -> int:
        """Halo depth for domain (height) partitioning: ``floor(k_h / 2)``."""
        return self.kernel_h // 2

    @property
    def halo_cols(self) -> int:
        """Halo depth for width partitioning: ``floor(k_w / 2)``."""
        return self.kernel_w // 2

    def __hash__(self) -> int:
        """The frozen dataclass hash (all fields, in order), computed once.

        Layers key the search engine's memo cache, and re-hashing 13
        fields per lookup dominated it.  The memo lives outside the
        fields, so ``==`` is untouched, and it is dropped on pickling:
        string hashes are per-process.
        """
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(getattr(self, f.name) for f in dataclasses.fields(self)))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


class LayerColumns(NamedTuple):
    """The weighted layers' cost-equation inputs as float64 columns.

    One row per weighted layer, shaped to broadcast against a trailing
    grid axis — what :mod:`repro.search.tables` multiplies by the
    ``Pr``/``Pc`` lanes.  Every count is far below ``2**53``, so the
    conversion from ``int`` is exact.
    """

    #: ``(L, 2, 1)``: ``d_i`` and ``d_{i-1}`` (all-gather / dX all-reduce sizes).
    activations: np.ndarray
    #: ``(L, 1)``: ``|W_i|``; ``weight_counts`` keeps the exact ints.
    weights: np.ndarray
    weight_counts: Tuple[int, ...]
    #: ``(L, 2, 1)`` each, forward then backward halo: the boundary's
    #: width, channels and extent (``X_W, X_C, k_h // 2`` / ``Y_W, Y_C, k_w // 2``).
    halo_width: np.ndarray
    halo_channels: np.ndarray
    halo_extent: np.ndarray
    #: ``(L,)`` bool: convolutional / first weighted layer (no dX term).
    conv: np.ndarray
    first: np.ndarray


class NetworkSpec:
    """An ordered stack of layers with resolved shapes.

    Parameters
    ----------
    name:
        Network name for reports.
    input_shape:
        Shape of one input sample.
    layers:
        Sequence of specs or ``(name, spec)`` pairs.  A
        :class:`~repro.nn.layer.FlattenSpec` is inserted automatically
        before the first FC layer that receives a spatial shape.
    """

    def __init__(self, name: str, input_shape: Shape3D, layers: Iterable[LayerLike]) -> None:
        if not isinstance(input_shape, Shape3D):
            raise ShapeError(f"input_shape must be a Shape3D, got {type(input_shape).__name__}")
        self.name = str(name)
        self.input_shape = input_shape
        bound: List[BoundLayer] = []
        shape = input_shape
        counters: dict = {}
        for item in layers:
            if isinstance(item, tuple):
                lname, spec = item
            else:
                spec = item
                counters[spec.kind] = counters.get(spec.kind, 0) + 1
                lname = f"{spec.kind}{counters[spec.kind]}"
            if not isinstance(spec, LayerSpec):
                raise ConfigurationError(f"layer {lname!r} is not a LayerSpec: {spec!r}")
            if isinstance(spec, FCSpec) and not shape.is_flat:
                flat = FlattenSpec()
                bound.append(
                    BoundLayer(len(bound), f"{lname}.flatten", flat, shape, shape.flattened())
                )
                shape = shape.flattened()
            out = spec.output_shape(shape)
            bound.append(BoundLayer(len(bound), lname, spec, shape, out))
            shape = out
        if not bound:
            raise ConfigurationError("a network needs at least one layer")
        names = [b.name for b in bound]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate layer names: {dupes}")
        self._bound: Tuple[BoundLayer, ...] = tuple(bound)
        self._weighted: Tuple[WeightedLayer, ...] = tuple(self._build_weighted())

    def _build_weighted(self) -> List[WeightedLayer]:
        weighted: List[WeightedLayer] = []
        for layer in self._bound:
            spec = layer.spec
            if isinstance(spec, ConvSpec):
                weighted.append(
                    WeightedLayer(
                        index=len(weighted) + 1,
                        name=layer.name,
                        kind="conv",
                        d_in=layer.in_shape.size,
                        d_out=layer.out_shape.size,
                        weights=layer.params,
                        in_shape=layer.in_shape,
                        out_shape=layer.out_shape,
                        kernel_h=spec.kernel_h,
                        kernel_w=spec.kernel_w,
                        stride=spec.stride,
                        groups=spec.groups,
                        flops=layer.flops,
                    )
                )
            elif isinstance(spec, FCSpec):
                weighted.append(
                    WeightedLayer(
                        index=len(weighted) + 1,
                        name=layer.name,
                        kind="fc",
                        d_in=layer.in_shape.size,
                        d_out=layer.out_shape.size,
                        weights=layer.params,
                        in_shape=layer.in_shape,
                        out_shape=layer.out_shape,
                        # Paper: for FC layers the halo is the whole input
                        # (k_h = X_H, k_w = X_W).
                        kernel_h=layer.in_shape.height,
                        kernel_w=layer.in_shape.width,
                        stride=1,
                        groups=1,
                        flops=layer.flops,
                    )
                )
        if not weighted:
            raise ConfigurationError(f"network {self.name!r} has no weighted layers")
        return weighted

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._bound)

    def __iter__(self):
        return iter(self._bound)

    def __getitem__(self, key: Union[int, str]) -> BoundLayer:
        if isinstance(key, int):
            return self._bound[key]
        for layer in self._bound:
            if layer.name == key:
                return layer
        raise KeyError(key)

    # -- views ---------------------------------------------------------------

    @property
    def weighted_layers(self) -> Tuple[WeightedLayer, ...]:
        """The ``L`` conv/FC layers the paper's sums run over."""
        return self._weighted

    @property
    def num_weighted(self) -> int:
        return len(self._weighted)

    @functools.cached_property
    def cost_columns(self) -> LayerColumns:
        """The weighted-layer view as :class:`LayerColumns`, built once."""
        layers = self._weighted

        def column(*fields):
            rows = [[float(f(w)) for f in fields] for w in layers]
            return np.array(rows, dtype=np.float64)[:, :, None]

        return LayerColumns(
            activations=column(lambda w: w.d_out, lambda w: w.d_in),
            weights=column(lambda w: w.weights)[:, 0],
            weight_counts=tuple(w.weights for w in layers),
            halo_width=column(lambda w: w.in_shape.width, lambda w: w.out_shape.width),
            halo_channels=column(lambda w: w.in_shape.channels, lambda w: w.out_shape.channels),
            halo_extent=column(lambda w: w.halo_rows, lambda w: w.halo_cols),
            conv=np.array([w.is_conv for w in layers]),
            first=np.array([w.index == 1 for w in layers]),
        )

    @property
    def conv_layers(self) -> Tuple[WeightedLayer, ...]:
        return tuple(w for w in self._weighted if w.is_conv)

    @property
    def fc_layers(self) -> Tuple[WeightedLayer, ...]:
        return tuple(w for w in self._weighted if w.is_fc)

    @property
    def output_shape(self) -> Shape3D:
        return self._bound[-1].out_shape

    @property
    def total_params(self) -> int:
        """Total model size (Table 1 reports ~61M for AlexNet)."""
        return sum(layer.params for layer in self._bound)

    @property
    def total_flops(self) -> int:
        """Forward-pass flops for one sample."""
        return sum(layer.flops for layer in self._bound)

    def summary(self) -> str:
        """A human-readable per-layer table."""
        rows = [
            f"{'#':>3} {'name':<14} {'kind':<10} {'in':>14} {'out':>14} "
            f"{'params':>12} {'Mflops':>9}"
        ]
        for layer in self._bound:
            rows.append(
                f"{layer.index:>3} {layer.name:<14} {layer.kind:<10} "
                f"{str(layer.in_shape):>14} {str(layer.out_shape):>14} "
                f"{layer.params:>12,} {layer.flops / 1e6:>9.1f}"
            )
        rows.append(
            f"    total params: {self.total_params:,}   "
            f"total Mflops/sample: {self.total_flops / 1e6:.1f}"
        )
        return "\n".join(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkSpec({self.name!r}, layers={len(self._bound)}, "
            f"weighted={self.num_weighted}, params={self.total_params:,})"
        )
