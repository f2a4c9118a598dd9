"""The Fig. 4 convolutional architecture.

Three 1-D convolutions with ReLU (the first has kernel = stride = r so
each output position aggregates one receptive field; the next two are
width-1 channel mixers: 32 -> 16 -> 8 channels), a summation readout over
the ``w`` vertex positions (Equation 7 as a layer), then Dense(128) +
ReLU, Dropout(0.5) and the softmax classification layer.

All convolutions are bias-free so the all-zero feature rows of dummy
vertices map to exactly zero through ReLU stacks, making the summation
readout ignore padding — the property Theorem 1's proof relies on.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv1d import Conv1D
from repro.nn.dense import Dense
from repro.nn.dropout import Dropout
from repro.nn.module import Layer, Sequential
from repro.nn.pooling import Flatten, SumPool1D
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = ["build_deepmap_cnn", "conv_stack", "DEFAULT_CHANNELS", "DEFAULT_DENSE_UNITS"]

#: Output channels of the three convolution layers (paper: 32, 16, 8).
DEFAULT_CHANNELS = (32, 16, 8)
#: Width of the dense layer (paper: 128).
DEFAULT_DENSE_UNITS = 128


def conv_stack(
    m: int,
    r: int,
    channels: tuple[int, int, int] = DEFAULT_CHANNELS,
    rng: np.random.Generator | int | None = 0,
) -> list[Layer]:
    """The three bias-free convolutions + ReLUs: ``(B, w*r, m)`` ->
    ``(B, w, channels[-1])``, one output position per sequence slot.

    Weights are drawn from ``rng`` in layer order, so a network that
    builds this stack first gets the same initial weights for the same
    seed.
    """
    rng = as_rng(rng)
    c1, c2, c3 = channels
    return [
        Conv1D(m, c1, kernel_size=r, stride=r, use_bias=False, rng=rng),
        ReLU(),
        Conv1D(c1, c2, kernel_size=1, use_bias=False, rng=rng),
        ReLU(),
        Conv1D(c2, c3, kernel_size=1, use_bias=False, rng=rng),
        ReLU(),
    ]


def build_deepmap_cnn(
    m: int,
    r: int,
    num_classes: int,
    channels: tuple[int, int, int] = DEFAULT_CHANNELS,
    dense_units: int = DEFAULT_DENSE_UNITS,
    dropout: float = 0.5,
    readout: str = "sum",
    w: int | None = None,
    rng: np.random.Generator | int | None = 0,
) -> Sequential:
    """Build the DeepMap CNN.

    Parameters
    ----------
    m:
        Vertex feature-map dimension (input channels).
    r:
        Receptive-field size (kernel and stride of the first conv).
    num_classes:
        Softmax width.
    channels:
        Conv output channels, default (32, 16, 8).
    dense_units:
        Hidden dense width, default 128.
    dropout:
        Dropout rate before the classifier, default 0.5.
    readout:
        "sum" (the paper) or "concat" (the Section 6 alternative, which
        needs ``w`` to size the following dense layer).
    rng:
        Initialisation seed.
    """
    check_positive("m", m)
    check_positive("r", r)
    check_positive("num_classes", num_classes)
    rng = as_rng(rng)
    layers = conv_stack(m, r, channels, rng)
    c3 = channels[-1]
    if readout == "sum":
        layers.append(SumPool1D())
        readout_dim = c3
    elif readout == "concat":
        if w is None:
            raise ValueError("concat readout requires w")
        layers.append(Flatten())
        readout_dim = c3 * w
    else:
        raise ValueError(f"unknown readout {readout!r}; use 'sum' or 'concat'")
    layers.extend(
        [
            Dense(readout_dim, dense_units, rng=rng),
            ReLU(),
            Dropout(dropout, rng=rng),
            Dense(dense_units, num_classes, rng=rng),
        ]
    )
    return Sequential(layers)
