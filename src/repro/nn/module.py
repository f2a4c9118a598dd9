"""Core abstractions of the from-scratch neural-network framework.

The paper trains its CNN with Keras on TensorFlow; offline we provide a
minimal but complete numpy framework with the same ingredients: layers
with exact backpropagation, RMSprop with learning-rate decay on plateau,
softmax cross-entropy, dropout, and mini-batch training.

Design:

* :class:`Parameter` couples a value array with its gradient accumulator.
* :class:`Layer` is the unit of computation: ``forward`` caches whatever
  ``backward`` needs; ``backward`` receives the upstream gradient and
  returns the input gradient while accumulating parameter gradients.
* :class:`Network` is anything with ``forward``/``backward``/``parameters``;
  :class:`Sequential` chains layers, and the GNN baselines implement their
  own ``Network`` subclasses for architectures with masks and branching.

All gradients are verified against central finite differences in
``tests/nn/test_gradients.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Parameter", "Layer", "Network", "Sequential"]


class Parameter:
    """A trainable array and its gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        # np.zeros, not zeros_like: its pages stay untouched until the
        # first backward pass, so inference never pays for a gradient.
        self.grad = np.zeros(self.value.shape)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __getstate__(self) -> dict:
        # The gradient is training scratch: a pickled parameter carries
        # its value only and comes back with a zeroed accumulator.
        return {"value": self.value, "name": self.name}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # Pickled before __getstate__ existed: (None, slot values).
            state = state[1]
        self.value = state["value"]
        self.name = state["name"]
        self.grad = np.zeros(self.value.shape)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Layer(ABC):
    """One differentiable computation step."""

    #: What ``forward`` caches for ``backward`` (im2col columns, masks,
    #: inputs, shapes).  Pickles — saved models, process hand-offs —
    #: carry these as ``None``: a model file holds weights and buffers,
    #: not the last training mini-batch's activations.
    _SCRATCH = frozenset(
        {"_cols", "_idx", "_in_shape", "_mask", "_x", "_cache",
         "_argmax", "_shape", "_length", "_out"}
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._SCRATCH.intersection(state):
            state[name] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # Files written before scratch was dropped still carry it; let
        # it go at load instead of holding it for the object's lifetime.
        self.__dict__.update(state)
        for name in self._SCRATCH.intersection(state):
            self.__dict__[name] = None

    @abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute outputs, caching what ``backward`` needs."""

    @abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``d loss / d output`` to ``d loss / d input``,
        accumulating parameter gradients along the way."""

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (default: none)."""
        return []

    def state(self) -> dict:
        """Non-parameter state a bitwise resume needs (default: none).

        Layers with internal buffers or RNG streams — BatchNorm running
        statistics, Dropout's mask generator — override this so a
        checkpointed training run can continue exactly where it stopped.
        """
        return {}

    def load_state(self, state: dict) -> None:
        """Restore what :meth:`state` exported (default: nothing)."""


class Network(ABC):
    """A trainable model: forward, backward, parameters."""

    @abstractmethod
    def forward(self, x, training: bool = False) -> np.ndarray:
        """Compute logits for a batch."""

    @abstractmethod
    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate the logits gradient through the whole model."""

    @abstractmethod
    def parameters(self) -> list[Parameter]:
        """All trainable parameters."""

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(p.value.size for p in self.parameters()))

    def state_dict(self) -> dict:
        """Model state for checkpointing: parameter values (+ layer state).

        The base implementation covers any network through
        ``parameters()``; :class:`Sequential` extends it with per-layer
        non-parameter state (running stats, dropout RNG streams).
        """
        return {"params": [p.value.copy() for p in self.parameters()]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` export in place."""
        values = list(state["params"])
        params = self.parameters()
        if len(values) != len(params):
            raise ValueError(
                f"state has {len(values)} parameters, network has {len(params)}"
            )
        for p, v in zip(params, values):
            v = np.asarray(v, dtype=p.value.dtype)
            if v.shape != p.value.shape:
                raise ValueError(
                    f"parameter {p.name}: state shape {v.shape} does not "
                    f"match {p.value.shape}"
                )
            p.value[...] = v


class Sequential(Network):
    """A plain chain of layers operating on a single array."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["layers"] = [layer.state() for layer in self.layers]
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        layer_states = state.get("layers")
        if layer_states is None:
            return
        if len(layer_states) != len(self.layers):
            raise ValueError(
                f"state has {len(layer_states)} layers, network has "
                f"{len(self.layers)}"
            )
        for layer, layer_state in zip(self.layers, layer_states):
            layer.load_state(layer_state)
