"""Conv1D oracles: the original fancy-index im2col gather and
``np.add.at`` scatter behind :class:`repro.nn.conv1d.Conv1D`."""

from __future__ import annotations

import numpy as np


def _conv1d_im2col(
    x: np.ndarray, kernel_size: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    batch, length, _ = x.shape
    l_out = (length - kernel_size) // stride + 1
    starts = np.arange(l_out) * stride
    idx = starts[:, None] + np.arange(kernel_size)[None, :]
    # Pin C order: for some shapes numpy satisfies this reshape with
    # strides instead of a copy, and BLAS results differ at the last ulp
    # between layouts — the oracle must feed the GEMM the same layout
    # the fast paths do or bitwise comparison is ill-posed.
    return np.ascontiguousarray(x[:, idx, :].reshape(batch, l_out, -1)), idx


def _reference_conv1d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    kernel_size: int,
    stride: int,
) -> np.ndarray:
    """Original fancy-index im2col forward (oracle)."""
    cols, _ = _conv1d_im2col(x, kernel_size, stride)
    out = cols @ weight
    if bias is not None:
        out = out + bias
    return out


def _reference_conv1d_backward(
    x: np.ndarray,
    weight: np.ndarray,
    grad: np.ndarray,
    kernel_size: int,
    stride: int,
    with_bias: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Original ``np.add.at`` scatter backward (oracle).

    Returns ``(dx, dweight, dbias)`` for one backward pass from zeroed
    gradients (``dbias`` is ``None`` when ``with_bias`` is false).
    """
    batch, length, channels = x.shape
    cols, idx = _conv1d_im2col(x, kernel_size, stride)
    cols2 = cols.reshape(-1, cols.shape[-1])
    grad2 = grad.reshape(-1, grad.shape[-1])
    dweight = cols2.T @ grad2
    dbias = grad2.sum(axis=0) if with_bias else None
    dcols = (grad @ weight.T).reshape(batch, -1, kernel_size, channels)
    dx = np.zeros(x.shape, dtype=np.float64)
    np.add.at(dx, (slice(None), idx, slice(None)), dcols)
    return dx, dweight, dbias
