"""Serial reference layer numerics (NumPy).

These are the single-process implementations every distributed
algorithm in this package is validated against.  Convolutions follow
the paper's matrix view — "our approach does not require each
individual convolution to be computed using matrix multiplication, but
we view it as this way" — by lowering to im2col and a single GEMM,
which also mirrors how the flops/cost models count work.

Layout is NCHW (``batch, channels, height, width``), the layout the
paper's Fig. 3 discusses for domain decomposition.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "relu",
    "relu_grad",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of ReLU at pre-activation ``x`` applied to ``dy``."""
    return dy * (x > 0.0)


def _out_extent(extent: int, kernel: int, stride: int, pad: int) -> int:
    out = (extent + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output extent for input {extent}, kernel {kernel}, "
            f"stride {stride}, pad {pad}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad_h: int = 0, pad_w: int = 0
) -> np.ndarray:
    """Lower ``(B, C, H, W)`` to patch columns ``(C*kh*kw, B*Hout*Wout)``.

    ``pad_h``/``pad_w`` are symmetric zero paddings; the domain-parallel
    convolution passes ``pad_h = 0`` for interior blocks whose vertical
    neighbourhood comes from halo rows instead.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got shape {x.shape}")
    b, c, h, w = x.shape
    hout = _out_extent(h, kh, stride, pad_h)
    wout = _out_extent(w, kw, stride, pad_w)
    xp = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    # Gather all kh*kw shifted views; vectorised over batch and space.
    cols = np.empty((c, kh, kw, b, hout, wout), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * hout
        for j in range(kw):
            j_max = j + stride * wout
            cols[:, i, j] = xp[:, :, i:i_max:stride, j:j_max:stride].transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, b * hout * wout)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad_h: int = 0,
    pad_w: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back to NCHW."""
    b, c, h, w = x_shape
    hout = _out_extent(h, kh, stride, pad_h)
    wout = _out_extent(w, kw, stride, pad_w)
    cols6 = cols.reshape(c, kh, kw, b, hout, wout)
    xp = np.zeros((b, c, h + 2 * pad_h, w + 2 * pad_w), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * hout
        for j in range(kw):
            j_max = j + stride * wout
            xp[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, i, j].transpose(1, 0, 2, 3)
    if pad_h == 0 and pad_w == 0:
        return xp
    return xp[:, :, pad_h : pad_h + h, pad_w : pad_w + w]


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """2-D convolution (cross-correlation): ``(B,C,H,W) * (F,C,kh,kw)``.

    Returns ``(B, F, Hout, Wout)``.
    """
    if w.ndim != 4:
        raise ShapeError(f"expected (F, C, kh, kw) weights, got {w.shape}")
    f, c, kh, kw = w.shape
    if x.shape[1] != c:
        raise ShapeError(f"input channels {x.shape[1]} != weight channels {c}")
    b, _, h, wd = x.shape
    hout = _out_extent(h, kh, stride, pad)
    wout = _out_extent(wd, kw, stride, pad)
    cols = im2col(x, kh, kw, stride, pad, pad)
    y = w.reshape(f, -1) @ cols  # (F, B*Hout*Wout)
    return y.reshape(f, b, hout, wout).transpose(1, 0, 2, 3)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, stride: int = 1, pad: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_forward`: returns ``(dx, dw)``.

    These are the paper's two backward products: ``dW = dY X^T`` and
    ``dX = W^T dY`` in the im2col basis.
    """
    f, c, kh, kw = w.shape
    b = x.shape[0]
    hout, wout = dy.shape[2], dy.shape[3]
    cols = im2col(x, kh, kw, stride, pad, pad)
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(f, b * hout * wout)
    dw = (dy_mat @ cols.T).reshape(w.shape)
    del cols  # the lowered buffers are the largest live: drop each once used
    dcols = w.reshape(f, -1).T @ dy_mat
    del dy_mat
    return col2im(dcols, x.shape, kh, kw, stride, pad, pad), dw


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-overlapping-friendly max pooling; returns ``(y, argmax)``.

    ``argmax`` indexes the winning element within each window and is
    consumed by :func:`maxpool2d_backward`.  Requires ``H`` and ``W``
    divisible by ``stride`` when ``kernel == stride`` (the common case
    used by the distributed CNN, where block alignment matters).
    """
    if stride is None:
        stride = kernel
    b, c, h, w = x.shape
    if kernel != stride:
        raise ShapeError("maxpool2d supports kernel == stride (non-overlapping) only")
    if h % stride or w % stride:
        raise ShapeError(f"pool stride {stride} must divide spatial dims {h}x{w}")
    hout, wout = h // stride, w // stride
    xr = x.reshape(b, c, hout, stride, wout, stride).transpose(0, 1, 2, 4, 3, 5)
    windows = xr.reshape(b, c, hout, wout, stride * stride)
    arg = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return y, arg


def maxpool2d_backward(
    dy: np.ndarray, arg: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int
) -> np.ndarray:
    """Scatter pooled gradients back to the winning input positions."""
    b, c, h, w = x_shape
    stride = kernel
    hout, wout = h // stride, w // stride
    dwin = np.zeros((b, c, hout, wout, stride * stride), dtype=dy.dtype)
    np.put_along_axis(dwin, arg[..., None], dy[..., None], axis=-1)
    return (
        dwin.reshape(b, c, hout, wout, stride, stride)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h, w)
    )
