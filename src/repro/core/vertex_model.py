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

from repro.core.architecture import DEFAULT_CHANNELS, conv_stack
from repro.core.pipeline import DeepMapEncoder, EncodedDataset
from repro.core.receptive_field import DUMMY
from repro.features.vertex_maps import (
    VertexFeatureExtractor,
    WLVertexFeatures,
)
from repro.features.vocabulary import FeatureVocabulary
from repro.graph.graph import Graph
from repro.nn.activations import ReLU
from repro.nn.dense import Dense
from repro.nn.dropout import Dropout
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import predict_logits
from repro.nn.module import Sequential
from repro.nn.optimizers import RMSprop
from repro.nn.schedulers import ReduceLROnPlateau
from repro.utils.rng import as_rng
from repro.utils.validation import check_fitted, check_positive

__all__ = ["DeepMapVertexClassifier"]


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
        self.network_: Sequential | None = None
        self.classes_: np.ndarray | None = None
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    def _encode(self, graphs: list[Graph], fit: bool) -> EncodedDataset:
        counts = self.extractor.extract(graphs)
        if fit:
            self.vocabulary_ = FeatureVocabulary.from_counts([counts])
            self.encoder_ = DeepMapEncoder(r=self.r, ordering=self.ordering).fit(graphs)
        check_fitted(self, "vocabulary_")
        assert self.vocabulary_ is not None and self.encoder_ is not None
        table = self.vocabulary_.vectorize_rows(counts)
        return self.encoder_.encode(graphs, table)

    def _slot_targets(
        self, encoded: EncodedDataset, targets: list[np.ndarray]
    ) -> np.ndarray:
        """Per-slot class indices aligned with the encoding (0 on padding)."""
        assert self.classes_ is not None
        slot_y = np.zeros(encoded.slots.shape, dtype=np.int64)
        for gi, t in enumerate(targets):
            row = encoded.slots[gi]
            real = row != DUMMY
            slot_y[gi, real] = np.searchsorted(self.classes_, t[row[real]])
        return slot_y

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

        encoded = self._encode(graphs, fit=True)
        slot_y = self._slot_targets(encoded, targets)

        rng = as_rng(self.seed)
        # Conv stack + position-wise head: (B, w*r, m) -> (B, w, classes);
        # Dense applies per slot on 3-D input.
        c3 = DEFAULT_CHANNELS[-1]
        self.network_ = Sequential(
            conv_stack(encoded.m, self.r, rng=rng)
            + [
                Dense(c3, 64, rng=rng),
                ReLU(),
                Dropout(0.5, rng=rng),
                Dense(64, self.classes_.size, rng=rng),
            ]
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
                x = encoded.take_rows(idx)
                y = slot_y[idx]
                logits = self.network_.forward(x, training=True)
                real = encoded.slots[idx].reshape(-1) != DUMMY
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
    def _logits(self, graphs: list[Graph]) -> tuple[EncodedDataset, np.ndarray]:
        check_fitted(self, "network_")
        assert self.network_ is not None
        encoded = self._encode(graphs, fit=False)
        return encoded, predict_logits(self.network_, encoded)

    def predict(self, graphs: list[Graph]) -> list[np.ndarray]:
        """Per-graph arrays of predicted vertex labels."""
        encoded, logits = self._logits(graphs)
        assert self.classes_ is not None
        return encoded.to_vertices(self.classes_[np.argmax(logits, axis=-1)], graphs)

    def predict_proba(self, graphs: list[Graph]) -> list[np.ndarray]:
        """Per-graph ``(n, classes)`` probability arrays."""
        encoded, logits = self._logits(graphs)
        return encoded.to_vertices(softmax(logits), graphs)

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
