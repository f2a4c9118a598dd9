"""End-to-end vertex classification with the DeepMap architecture.

Section 7 of the paper: "The learned deep feature map of each vertex can
also be considered as vertex embedding and used for vertex
classification."  :class:`DeepMapVertexClassifier` realises that remark
as a trainable estimator: the same alignment + receptive-field encoding
and convolution stack as the graph classifier, but instead of a
summation readout, every sequence slot gets a position-wise dense head
and a softmax — trained with a mask so padded slots contribute nothing.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import DeepMapEncoder
from repro.core.alignment import centrality_scores, vertex_sequence
from repro.features.vertex_maps import (
    VertexFeatureExtractor,
    WLVertexFeatures,
)
from repro.features.vocabulary import FeatureVocabulary
from repro.graph.graph import Graph
from repro.nn.activations import ReLU
from repro.nn.conv1d import Conv1D
from repro.nn.dense import Dense
from repro.nn.dropout import Dropout
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.module import Network, Parameter
from repro.nn.optimizers import RMSprop
from repro.nn.schedulers import ReduceLROnPlateau
from repro.utils.rng import as_rng
from repro.utils.validation import check_fitted, check_positive

__all__ = ["DeepMapVertexClassifier"]


class _VertexNetwork(Network):
    """Conv stack + position-wise classification head: (B, w*r, m) ->
    (B, w, classes)."""

    def __init__(
        self,
        m: int,
        r: int,
        num_classes: int,
        channels: tuple[int, int, int] = (32, 16, 8),
        dense_units: int = 64,
        dropout: float = 0.5,
        rng: np.random.Generator | int | None = 0,
    ) -> None:
        rng = as_rng(rng)
        c1, c2, c3 = channels
        self.layers = [
            Conv1D(m, c1, kernel_size=r, stride=r, use_bias=False, rng=rng),
            ReLU(),
            Conv1D(c1, c2, kernel_size=1, use_bias=False, rng=rng),
            ReLU(),
            Conv1D(c2, c3, kernel_size=1, use_bias=False, rng=rng),
            ReLU(),
            Dense(c3, dense_units, rng=rng),
            ReLU(),
            Dropout(dropout, rng=rng),
            Dense(dense_units, num_classes, rng=rng),
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x  # (B, w, classes) — Dense applies position-wise

    def backward(self, grad: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]


class DeepMapVertexClassifier:
    """Vertex classifier on DeepMap's aligned receptive-field encoding.

    Parameters mirror :class:`~repro.core.model.DeepMapClassifier`;
    targets are per-graph integer arrays (one label per vertex).
    """

    def __init__(
        self,
        feature_map: str | VertexFeatureExtractor = "wl",
        r: int = 5,
        ordering: str = "eigenvector",
        epochs: int = 50,
        batch_size: int = 16,
        seed: int | None = 0,
    ) -> None:
        if isinstance(feature_map, str):
            if feature_map != "wl":
                raise ValueError(
                    "named shortcuts support 'wl'; pass an extractor instance "
                    "for other feature maps"
                )
            self.extractor: VertexFeatureExtractor = WLVertexFeatures()
        else:
            self.extractor = feature_map
        check_positive("r", r)
        self.r = r
        self.ordering = ordering
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed

        self.vocabulary_: FeatureVocabulary | None = None
        self.encoder_: DeepMapEncoder | None = None
        self.network_: _VertexNetwork | None = None
        self.classes_: np.ndarray | None = None
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    def _matrices(self, graphs: list[Graph], fit: bool) -> list[np.ndarray]:
        counts = self.extractor.extract(graphs)
        if fit:
            self.vocabulary_ = FeatureVocabulary.from_counts(counts)
        check_fitted(self, "vocabulary_")
        assert self.vocabulary_ is not None
        return [self.vocabulary_.vectorize_rows(vc) for vc in counts]

    def _slot_targets(
        self, graphs: list[Graph], targets: list[np.ndarray], w: int, index: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot class indices (and mask) aligned with the encoding."""
        slot_y = np.zeros((len(graphs), w), dtype=np.int64)
        mask = np.zeros((len(graphs), w), dtype=np.float64)
        for gi, (g, t) in enumerate(zip(graphs, targets)):
            scores = centrality_scores(g, self.ordering)
            sequence = vertex_sequence(g, scores, self.ordering)[:w]
            for slot, v in enumerate(sequence):
                slot_y[gi, slot] = index[int(t[int(v)])]
                mask[gi, slot] = 1.0
        return slot_y, mask

    # ------------------------------------------------------------------
    def fit(
        self, graphs: list[Graph], vertex_targets: list[np.ndarray | list]
    ) -> "DeepMapVertexClassifier":
        """Train on per-graph vertex-label arrays."""
        if len(graphs) != len(vertex_targets):
            raise ValueError("graphs and vertex_targets must align")
        targets = [np.asarray(t, dtype=np.int64) for t in vertex_targets]
        for g, t in zip(graphs, targets):
            if t.shape != (g.n,):
                raise ValueError(
                    f"target shape {t.shape} mismatches graph with {g.n} vertices"
                )
        self.classes_ = np.unique(np.concatenate(targets))
        index = {int(c): i for i, c in enumerate(self.classes_)}

        matrices = self._matrices(graphs, fit=True)
        self.encoder_ = DeepMapEncoder(r=self.r, ordering=self.ordering).fit(graphs)
        encoded = self.encoder_.encode(graphs, matrices)
        slot_y, mask = self._slot_targets(graphs, targets, encoded.w, index)

        rng = as_rng(self.seed)
        self.network_ = _VertexNetwork(
            m=encoded.m, r=self.r, num_classes=self.classes_.size, rng=rng
        )
        optimizer = RMSprop(self.network_.parameters(), lr=0.01)
        scheduler = ReduceLROnPlateau(optimizer)
        loss_fn = SoftmaxCrossEntropy()
        n = len(graphs)
        shuffle_rng = as_rng(int(rng.integers(0, 2**31 - 1)))

        self.loss_history_ = []
        for _ in range(self.epochs):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            total_vertices = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                x = encoded.tensors[idx]
                y = slot_y[idx]
                m = mask[idx]
                logits = self.network_.forward(x, training=True)
                real = m.reshape(-1) > 0
                flat_logits = logits.reshape(-1, logits.shape[-1])[real]
                flat_y = y.reshape(-1)[real]
                loss = loss_fn.forward(flat_logits, flat_y)
                # Scatter the flat gradient back into the padded tensor.
                grad = np.zeros(
                    (y.size, logits.shape[-1]), dtype=np.float64
                )
                grad[real] = loss_fn.backward()
                self.network_.zero_grad()
                self.network_.backward(grad.reshape(logits.shape))
                optimizer.step()
                epoch_loss += loss * int(real.sum())
                total_vertices += int(real.sum())
            epoch_loss /= max(total_vertices, 1)
            self.loss_history_.append(epoch_loss)
            scheduler.step(epoch_loss)
        return self

    # ------------------------------------------------------------------
    def predict(self, graphs: list[Graph]) -> list[np.ndarray]:
        """Per-graph arrays of predicted vertex labels."""
        check_fitted(self, "network_")
        assert self.network_ is not None and self.classes_ is not None
        assert self.encoder_ is not None
        matrices = self._matrices(graphs, fit=False)
        encoded = self.encoder_.encode(graphs, matrices)
        logits = self.network_.forward(encoded.tensors, training=False)
        out: list[np.ndarray] = []
        for gi, g in enumerate(graphs):
            scores = centrality_scores(g, self.ordering)
            sequence = vertex_sequence(g, scores, self.ordering)[: encoded.w]
            labels = np.zeros(g.n, dtype=np.int64)
            for slot, v in enumerate(sequence):
                labels[int(v)] = self.classes_[int(np.argmax(logits[gi, slot]))]
            out.append(labels)
        return out

    def predict_proba(self, graphs: list[Graph]) -> list[np.ndarray]:
        """Per-graph ``(n, classes)`` probability arrays."""
        check_fitted(self, "network_")
        assert self.network_ is not None and self.encoder_ is not None
        matrices = self._matrices(graphs, fit=False)
        encoded = self.encoder_.encode(graphs, matrices)
        logits = self.network_.forward(encoded.tensors, training=False)
        probs = softmax(logits)
        out: list[np.ndarray] = []
        for gi, g in enumerate(graphs):
            scores = centrality_scores(g, self.ordering)
            sequence = vertex_sequence(g, scores, self.ordering)[: encoded.w]
            p = np.zeros((g.n, probs.shape[-1]), dtype=np.float64)
            for slot, v in enumerate(sequence):
                p[int(v)] = probs[gi, slot]
            out.append(p)
        return out

    def score(
        self, graphs: list[Graph], vertex_targets: list[np.ndarray | list]
    ) -> float:
        """Micro-averaged vertex accuracy."""
        preds = self.predict(graphs)
        correct = total = 0
        for pred, target in zip(preds, vertex_targets):
            target = np.asarray(target, dtype=np.int64)
            correct += int((pred == target).sum())
            total += target.size
        return correct / max(total, 1)
