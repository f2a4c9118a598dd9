"""One-dimensional convolution over vertex sequences.

DeepMap's first layer slides a width-``r`` kernel with stride ``r`` over
the concatenated receptive fields, exactly like PATCHY-SAN's field-aligned
convolution; the later layers use width-1 kernels (per-position mixing).
Implemented with an im2col gather so forward and backward are single
matrix multiplications.

Both DeepMap configurations (``stride == kernel_size == r`` and the
width-1 layers) have non-overlapping windows, so the im2col "gather" is a
zero-copy reshape and the backward scatter is a single vectorized
fancy-index add — no ``np.add.at`` (which dispatches per element) on the
hot path.  The original gather/scatter implementation is a test oracle
in ``tests/oracles/nn.py``; ``tests/equivalence`` pins the fast paths to
it bitwise and finite-difference-checks the gradients.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.module import Layer, Parameter
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = ["Conv1D"]


class Conv1D(Layer):
    """1-D convolution on ``(batch, length, channels)`` inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel widths.
    kernel_size:
        Window width.
    stride:
        Step between windows.  DeepMap layer 1 uses ``stride ==
        kernel_size == r`` so each output position sees exactly one
        receptive field.
    use_bias:
        Disable so all-zero windows (dummy vertices) produce all-zero
        outputs.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        use_bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        check_positive("in_channels", in_channels)
        check_positive("out_channels", out_channels)
        check_positive("kernel_size", kernel_size)
        check_positive("stride", stride)
        rng = as_rng(rng)
        fan_in = kernel_size * in_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            glorot_uniform((fan_in, out_channels), fan_in, out_channels, rng),
            name="conv1d.weight",
        )
        self.bias = (
            Parameter(zeros((out_channels,)), name="conv1d.bias") if use_bias else None
        )
        self._cols: np.ndarray | None = None
        self._idx: np.ndarray | None = None
        self._in_shape: tuple[int, ...] | None = None

    def output_length(self, length: int) -> int:
        """Number of output positions for an input of ``length``."""
        if length < self.kernel_size:
            raise ValueError(
                f"input length {length} shorter than kernel {self.kernel_size}"
            )
        return (length - self.kernel_size) // self.stride + 1

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"expected (batch, length, {self.in_channels}), got {x.shape}"
            )
        batch, length, _ = x.shape
        l_out = self.output_length(length)
        # Both branches pin C order before the GEMM: BLAS dispatches
        # differently on strided operands, and a layout-dependent 1-ulp
        # drift would break the bitwise fast-vs-oracle equivalence.
        if self.stride == self.kernel_size and l_out * self.kernel_size == length:
            # Non-overlapping windows tiling the input: im2col is a reshape.
            cols = np.ascontiguousarray(x.reshape(batch, l_out, -1))
            idx = None
        else:
            starts = np.arange(l_out) * self.stride
            idx = starts[:, None] + np.arange(self.kernel_size)[None, :]
            # (batch, l_out, kernel, channels) -> (batch, l_out, kernel*channels)
            cols = np.ascontiguousarray(x[:, idx, :].reshape(batch, l_out, -1))
        self._cols = cols
        self._idx = idx
        self._in_shape = x.shape
        out = cols @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward_params(self, grad: np.ndarray) -> None:
        assert self._cols is not None
        cols2 = self._cols.reshape(-1, self._cols.shape[-1])
        grad2 = grad.reshape(-1, grad.shape[-1])
        self.weight.grad += cols2.T @ grad2
        if self.bias is not None:
            self.bias.grad += grad2.sum(axis=0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._in_shape is not None
        batch, length, channels = self._in_shape
        self.backward_params(grad)
        dcols = grad @ self.weight.value.T
        dx = np.zeros(self._in_shape, dtype=np.float64)
        l_out = grad.shape[1]
        if self._idx is None:
            # Windows tile the input exactly: scatter is one dense add.
            dx += dcols.reshape(self._in_shape)
        elif self.stride >= self.kernel_size:
            # Disjoint windows (possibly with gaps): every input position
            # receives at most one window gradient, so a fancy-index add
            # (unique indices) replaces the per-element np.add.at.
            dx[:, self._idx.ravel(), :] += dcols.reshape(
                batch, l_out * self.kernel_size, channels
            )
        else:
            # Overlapping windows: duplicate indices require add.at.
            np.add.at(
                dx,
                (slice(None), self._idx, slice(None)),
                dcols.reshape(batch, l_out, self.kernel_size, channels),
            )
        return dx

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])
