"""Domain-parallel 2-D convolution with halo exchange (paper Fig. 3).

Each rank of a domain group owns a contiguous block of image *rows*
(the paper: "For NCHW format, it is best to distribute along the height
to avoid non-contiguous memory accesses") and the full weight tensor.
A convolution with ``k_h > 1`` needs boundary rows from its neighbours —
the pairwise halo exchange whose cost Eq. 7 charges as
``alpha + beta * B * X_W * X_C * floor(k_h / 2)``.  1x1 convolutions
skip the exchange entirely, as the paper highlights.

Backward pass: the weight gradient is a partial sum (completed by the
caller's all-reduce over *all* processes, since the model is fully
replicated), and the input gradient computed on the halo-extended block
spills boundary rows into each neighbour's territory — a second halo
exchange returns those contributions (the
``beta * B * Y_W * Y_C * floor(k_w / 2)`` term).

Supported shapes: odd kernels with "same" padding, stride ``s >= 1``
with every rank's block height divisible by ``s`` (aligned
downsampling).  For stride 1 the halo is ``floor(k_h / 2)`` rows in both
directions — the paper's Eq. 7 volume.  For larger strides the *bottom*
halo shrinks to ``max(0, k_h - pad - s)`` rows — a stride-2 3x3
convolution needs no bottom halo at all — an observation that extends
the paper's stride-1 analysis to the downsampling layers of modern
networks.

Silent-data-corruption coverage: the halo exchanges here are plain
point-to-point sends and receives of float64 arrays, so when an
:class:`~repro.dist.abft.SDCGuard` is active (see
:func:`~repro.simmpi.sdc.payload_guard`) every halo payload travels
digest-escorted and is verified on arrival by the transport layer
(:meth:`~repro.simmpi.communicator.Comm._accept_payload`).  No
checksum logic is needed in this module — in-flight halo corruption is
detected and recovered at the wire, while the conv GEMM outputs
themselves are outside the matmul-targeted ABFT sites (the paper's
three 1.5D layer products).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.dist.layers import col2im, im2col
from repro.dist.partition import BlockPartition
from repro.errors import ConfigurationError, ShapeError

__all__ = ["DomainConv2D"]

# Tags for the non-blocking timed halo exchange (distinct from the
# blocking collops tags so the two paths can never cross-match).
_TAG_HALO_DOWN = 15_000_000
_TAG_HALO_UP = 15_000_001


class DomainConv2D:
    """A convolution executed over a row-partitioned image domain.

    Parameters
    ----------
    domain_comm:
        Communicator over the ``Pd`` domain ranks, ordered top-to-bottom.
    total_height:
        Full image height ``X_H``; each rank owns the block of rows
        given by a balanced :class:`~repro.dist.partition.BlockPartition`
        (equal, stride-aligned blocks when ``stride > 1``).
    kernel_h, kernel_w:
        Filter extent; both must be odd (for "same" padding).
    stride:
        Convolution stride (both dims); output spatial extents are the
        input extents divided by it.
    """

    def __init__(
        self,
        domain_comm,
        total_height: int,
        kernel_h: int,
        kernel_w: int,
        stride: int = 1,
    ) -> None:
        if kernel_h < 1 or kernel_w < 1:
            raise ConfigurationError("kernel dims must be >= 1")
        if kernel_h % 2 == 0 or kernel_w % 2 == 0:
            raise ConfigurationError(
                "domain-parallel convolution needs odd kernels for same padding, "
                f"got {kernel_h}x{kernel_w}"
            )
        if stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {stride}")
        self.comm = domain_comm
        self.kernel_h = kernel_h
        self.kernel_w = kernel_w
        self.stride = stride
        self.pad = kernel_h // 2
        #: Rows needed from the previous rank (above).
        self.top_halo = self.pad
        #: Rows needed from the next rank (below); shrinks with stride.
        self.bottom_halo = max(0, kernel_h - self.pad - stride)
        if stride > 1 and total_height % (domain_comm.size * stride):
            raise ConfigurationError(
                f"height {total_height} must divide into {domain_comm.size} "
                f"equal stride-{stride}-aligned blocks"
            )
        self.partition = BlockPartition(total_height, domain_comm.size)
        self.rows = self.partition.bounds(domain_comm.rank)
        self.local_height = self.rows[1] - self.rows[0]
        if self.local_height < max(self.top_halo, self.bottom_halo) and domain_comm.size > 1:
            raise ConfigurationError(
                f"local block of {self.local_height} rows is thinner than the "
                f"halo ({self.top_halo}); use fewer domain parts"
            )
        if self.local_height % stride:
            raise ConfigurationError(
                f"local block height {self.local_height} not divisible by stride {stride}"
            )
        self.local_out_height = self.local_height // stride
        self._x_ext: Optional[np.ndarray] = None

    @property
    def needs_halo(self) -> bool:
        return (self.top_halo > 0 or self.bottom_halo > 0) and self.comm.size > 1

    # -- forward ----------------------------------------------------------

    def forward(self, x_local: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Convolve this rank's rows; returns ``(B, F, local_h/s, W/s)``.

        ``x_local`` is ``(B, C, local_h, W)``; ``weights`` is the full
        ``(F, C, k_h, k_w)`` tensor (replicated everywhere).
        """
        self._validate_forward(x_local, weights)
        from_above, from_below = self._exchange_halos_blocking(x_local)
        x_ext = self._assemble_ext(x_local, from_above, from_below)
        return self._forward_from_ext(x_ext, weights)

    def forward_timed(
        self,
        x_local: np.ndarray,
        weights: np.ndarray,
        compute_seconds: float,
        *,
        overlap: bool = True,
    ) -> np.ndarray:
        """Forward pass with explicit virtual-time modelling of overlap.

        The paper: the halo exchange "can be performed as a non-blocking,
        pair-wise exchange while the convolution is being applied to the
        rest of the image".  With ``overlap=True`` the boundary messages
        are posted with isend/irecv, the *interior* share of
        ``compute_seconds`` (output rows that need no neighbour data)
        advances the clock while they fly, and only then are the halos
        awaited and the boundary rows computed.  ``overlap=False`` models
        the blocking order: exchange first, then the full compute.
        Numerics are identical either way.
        """
        if compute_seconds < 0:
            raise ConfigurationError("compute_seconds must be >= 0")
        self._validate_forward(x_local, weights)
        comm = self.comm
        if not self.needs_halo:
            comm.advance(compute_seconds)
            x_ext = self._assemble_ext(x_local, None, None)
            return self._forward_from_ext(x_ext, weights)
        if not overlap:
            from_above, from_below = self._exchange_halos_blocking(x_local)
            comm.advance(compute_seconds)
            return self._forward_from_ext(
                self._assemble_ext(x_local, from_above, from_below), weights
            )
        r, p = comm.rank, comm.size
        boundary_out = math.ceil(self.top_halo / self.stride) + math.ceil(
            self.bottom_halo / self.stride
        )
        interior_frac = max(self.local_out_height - boundary_out, 0) / max(
            self.local_out_height, 1
        )
        # Post the boundary traffic, then compute the interior under it.
        if self.top_halo > 0 and r + 1 < p:
            comm.isend(self._bottom_rows(x_local, self.top_halo), r + 1, _TAG_HALO_DOWN)
        if self.bottom_halo > 0 and r > 0:
            comm.isend(self._top_rows(x_local, self.bottom_halo), r - 1, _TAG_HALO_UP)
        req_above = comm.irecv(r - 1, _TAG_HALO_DOWN) if (r > 0 and self.top_halo > 0) else None
        req_below = (
            comm.irecv(r + 1, _TAG_HALO_UP) if (r + 1 < p and self.bottom_halo > 0) else None
        )
        comm.advance(interior_frac * compute_seconds)
        from_above = req_above.wait() if req_above is not None else None
        from_below = req_below.wait() if req_below is not None else None
        comm.advance((1.0 - interior_frac) * compute_seconds)
        x_ext = self._assemble_ext(x_local, from_above, from_below)
        return self._forward_from_ext(x_ext, weights)

    @staticmethod
    def _top_rows(arr: np.ndarray, count: int) -> np.ndarray:
        return np.ascontiguousarray(arr[:, :, :count, :])

    @staticmethod
    def _bottom_rows(arr: np.ndarray, count: int) -> np.ndarray:
        rows = arr.shape[2]
        return np.ascontiguousarray(arr[:, :, rows - count :, :])

    def _exchange_halos_blocking(
        self, x_local: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Blocking forward halo exchange (asymmetric when strided).

        The neighbour above needs our top ``bottom_halo`` rows (they sit
        just below its block); the neighbour below needs our bottom
        ``pad`` rows.  Zero-depth directions send nothing — a stride-2
        3x3 convolution moves only downward boundary data.
        """
        if not self.needs_halo:
            return None, None
        comm = self.comm
        r, p = comm.rank, comm.size
        from_above = from_below = None
        if self.top_halo > 0:  # data flowing downward (to higher ranks)
            if r + 1 < p:
                comm.send(self._bottom_rows(x_local, self.top_halo), r + 1, _TAG_HALO_DOWN)
            if r > 0:
                from_above = comm.recv(r - 1, _TAG_HALO_DOWN)
        if self.bottom_halo > 0:  # data flowing upward (to lower ranks)
            if r > 0:
                comm.send(self._top_rows(x_local, self.bottom_halo), r - 1, _TAG_HALO_UP)
            if r + 1 < p:
                from_below = comm.recv(r + 1, _TAG_HALO_UP)
        return from_above, from_below

    def _validate_forward(self, x_local: np.ndarray, weights: np.ndarray) -> None:
        if x_local.ndim != 4:
            raise ShapeError(f"expected NCHW block, got {x_local.shape}")
        if x_local.shape[2] != self.local_height:
            raise ShapeError(
                f"block height {x_local.shape[2]} != owned rows {self.local_height}"
            )
        if self.stride > 1 and x_local.shape[3] % self.stride:
            raise ShapeError(
                f"width {x_local.shape[3]} not divisible by stride {self.stride}"
            )
        kh, kw = weights.shape[2], weights.shape[3]
        if (kh, kw) != (self.kernel_h, self.kernel_w):
            raise ShapeError(
                f"weights kernel {kh}x{kw} != configured {self.kernel_h}x{self.kernel_w}"
            )

    def _forward_from_ext(self, x_ext: np.ndarray, weights: np.ndarray) -> np.ndarray:
        self._x_ext = x_ext
        f = weights.shape[0]
        kh, kw = self.kernel_h, self.kernel_w
        b = x_ext.shape[0]
        wout = (x_ext.shape[3] + 2 * (kw // 2) - kw) // self.stride + 1
        cols = im2col(x_ext, kh, kw, stride=self.stride, pad_h=0, pad_w=kw // 2)
        y = weights.reshape(f, -1) @ cols
        return y.reshape(f, b, self.local_out_height, wout).transpose(1, 0, 2, 3)

    def _assemble_ext(
        self,
        x_local: np.ndarray,
        from_above: Optional[np.ndarray],
        from_below: Optional[np.ndarray],
    ) -> np.ndarray:
        if self.top_halo == 0 and self.bottom_halo == 0:
            return x_local
        b, c, _, w = x_local.shape
        top = (
            from_above
            if from_above is not None
            else np.zeros((b, c, self.top_halo, w), dtype=x_local.dtype)
        )
        bottom = (
            from_below
            if from_below is not None
            else np.zeros((b, c, self.bottom_halo, w), dtype=x_local.dtype)
        )
        return np.concatenate([top, x_local, bottom], axis=2)

    # -- backward -----------------------------------------------------------

    def backward(
        self, dy_local: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients from this rank's output rows.

        Returns ``(dx_local, dw_partial)``.  ``dw_partial`` sums only
        this rank's rows and batch shard; the caller completes it with
        an all-reduce over all processes.  ``dx_local`` is exact: halo
        contributions that belong to neighbouring blocks are shipped
        over (and received from) the neighbours before returning.
        """
        if self._x_ext is None:
            raise ShapeError("backward called before forward (no cached input)")
        f, c, kh, kw = weights.shape
        b = dy_local.shape[0]
        wout = dy_local.shape[3]
        x_ext = self._x_ext
        # Each lowered buffer goes as soon as its product is taken: every
        # rank's step state is live at once, and none of these may be
        # held through the halo exchange below.
        cols = im2col(x_ext, kh, kw, stride=self.stride, pad_h=0, pad_w=kw // 2)
        dy_mat = dy_local.transpose(1, 0, 2, 3).reshape(f, b * self.local_out_height * wout)
        dw_partial = (dy_mat @ cols.T).reshape(weights.shape)
        del cols
        dcols = weights.reshape(f, -1).T @ dy_mat
        del dy_mat
        dx_ext = col2im(dcols, x_ext.shape, kh, kw, stride=self.stride, pad_h=0, pad_w=kw // 2)
        # The cached input's last read: else every rank keeps it through
        # the caller's gradient all-reduce.
        del dcols, x_ext
        self._x_ext = None
        top, bottom = self.top_halo, self.bottom_halo
        if top == 0 and bottom == 0:
            return dx_ext, dw_partial
        rows = dx_ext.shape[2]
        dx_local = dx_ext[:, :, top : rows - bottom, :].copy()
        comm = self.comm
        if comm.size > 1:
            # Ship the gradient that landed in halo rows back to the
            # owners: the top `pad` rows belong to the rank above (its
            # bottom rows); the bottom `bottom_halo` rows to the rank
            # below (its top rows).  Directions with zero halo depth
            # carry no traffic.
            r, p = comm.rank, comm.size
            if top > 0:  # gradient flowing upward
                if r > 0:
                    comm.send(self._top_rows(dx_ext, top), r - 1, _TAG_HALO_UP)
                if r + 1 < p:
                    grad_below = comm.recv(r + 1, _TAG_HALO_UP)
                    dx_local[:, :, self.local_height - top :, :] += grad_below
            if bottom > 0:  # gradient flowing downward
                if r + 1 < p:
                    comm.send(self._bottom_rows(dx_ext, bottom), r + 1, _TAG_HALO_DOWN)
                if r > 0:
                    grad_above = comm.recv(r - 1, _TAG_HALO_DOWN)
                    dx_local[:, :, :bottom, :] += grad_above
        return dx_local, dw_partial
