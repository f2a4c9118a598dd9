"""Shared machinery for the GNN baselines.

All four baselines (GIN, DGCNN, DCNN, PATCHY-SAN) consume *padded dense
batches*: vertex features ``(B, w, d)``, adjacency ``(B, w, w)`` and a
validity mask ``(B, w)``.  Padding rows are all-zero and padded adjacency
rows/columns are zero, so message passing never mixes padding into real
vertices; readouts apply the mask explicitly.

Two input featurisations exist, matching the paper's Tables 3 and 4:

* :class:`~repro.features.OneHotLabelFeatures` — "the inputs to DGCNN and
  GIN are the one-hot encodings of vertex labels" (Table 3);
* the vertex feature maps of :mod:`repro.features` (Table 4, "other GNNs
  with the same input of vertex feature maps").

Both go through one vocabulary fit and one sparse feature table; each
graph's dense ``(n, d)`` input is cut from that table one graph at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.features.vertex_maps import OneHotLabelFeatures
from repro.features.vocabulary import FeatureVocabulary
from repro.graph.graph import Graph
from repro.nn.model import History, Trainer, predict_labels
from repro.utils.rng import as_rng
from repro.utils.validation import check_fitted, check_labels

__all__ = [
    "PaddedBatch",
    "pad_graph_batch",
    "normalized_adjacency",
    "GNNBaseline",
]


@dataclass
class PaddedBatch:
    """Dense padded tensors for a list of graphs."""

    features: np.ndarray  # (B, w, d)
    adjacency: np.ndarray  # (B, w, w) — raw 0/1, no self-loops
    mask: np.ndarray  # (B, w)

    @property
    def w(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    def as_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tuple form consumed by the trainer (sliceable on axis 0)."""
        return (self.features, self.adjacency, self.mask)


def pad_graph_batch(
    graphs: list[Graph], feature_matrices: list[np.ndarray], w: int | None = None
) -> PaddedBatch:
    """Stack graphs into padded dense tensors.

    Graphs larger than ``w`` (possible for held-out graphs when ``w`` was
    fixed on a training set) keep their first ``w`` vertices.
    """
    if len(graphs) != len(feature_matrices):
        raise ValueError("graphs and feature matrices must align")
    if not graphs:
        raise ValueError("need at least one graph")
    if w is None:
        w = max(g.n for g in graphs)
    d = feature_matrices[0].shape[1]
    b = len(graphs)
    feats = np.zeros((b, w, d), dtype=np.float64)
    adj = np.zeros((b, w, w), dtype=np.float64)
    mask = np.zeros((b, w), dtype=np.float64)
    for i, (g, x) in enumerate(zip(graphs, feature_matrices)):
        k = min(g.n, w)
        feats[i, :k] = x[:k]
        a = g.adjacency_matrix()
        adj[i, :k, :k] = a[:k, :k]
        mask[i, :k] = 1.0
    return PaddedBatch(features=feats, adjacency=adj, mask=mask)


def normalized_adjacency(adjacency: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Row-normalised (batched) adjacency ``D^-1 (A + I)`` respecting padding.

    Padding rows stay all-zero (their degree is zero, guarded against
    division by zero), so propagation cannot resurrect padded vertices.
    """
    a = adjacency.copy()
    if add_self_loops:
        # Self-loops only where the vertex exists (row or column non-empty
        # OR degree zero but real — callers pass masked adjacency, so we
        # add loops on the diagonal and later multiply by the mask).
        idx = np.arange(a.shape[1])
        a[:, idx, idx] += 1.0
    deg = a.sum(axis=2, keepdims=True)
    deg[deg == 0] = 1.0
    return a / deg


class GNNBaseline:
    """Base estimator: class mapping, trainer protocol, fit/predict glue.

    Subclasses implement ``_prepare(graphs, fit)`` returning trainer
    inputs, and ``_build(num_classes)`` returning the network.
    """

    def __init__(
        self,
        features="onehot",
        epochs: int = 50,
        batch_size: int = 32,
        seed: int | None = 0,
    ) -> None:
        self.features = features
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.network_ = None
        self.history_: History | None = None
        self.vocabulary_: FeatureVocabulary | None = None

    def _featurize(self, graphs: list[Graph], fit: bool) -> list[np.ndarray]:
        """Per-graph dense vertex inputs: one-hot labels or feature maps.

        ``features="onehot"`` reproduces the GNN papers' input (Table 3);
        passing a :class:`~repro.features.VertexFeatureExtractor` feeds the
        baselines DeepMap's vertex feature maps (Table 4).  Held-out
        graphs embed in the training vocabulary; unseen keys (labels)
        give zero entries.
        """
        onehot = self.features == "onehot"
        counts = (OneHotLabelFeatures() if onehot else self.features).extract(graphs)
        if fit:
            self.vocabulary_ = FeatureVocabulary.from_counts(counts)
        check_fitted(self, "vocabulary_")
        assert self.vocabulary_ is not None
        table = self.vocabulary_.vectorize_rows(chain.from_iterable(counts))
        bounds = np.cumsum([0] + [g.n for g in graphs])
        return [table.dense(np.arange(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]

    # Subclass hooks ----------------------------------------------------
    def _prepare(self, graphs: list[Graph], fit: bool):
        raise NotImplementedError

    def _build(self, num_classes: int, rng: np.random.Generator):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def fit(
        self,
        graphs: list[Graph],
        y: np.ndarray | list,
        validation: tuple[list[Graph], np.ndarray] | None = None,
        epoch_callback=None,
    ):
        y = check_labels(y)
        if len(graphs) != y.size:
            raise ValueError(f"{len(graphs)} graphs but {y.size} labels")
        self.classes_ = np.unique(y)
        class_index = {int(c): i for i, c in enumerate(self.classes_)}
        targets = np.array([class_index[int(v)] for v in y])
        inputs = self._prepare(graphs, fit=True)
        rng = as_rng(self.seed)
        self.network_ = self._build(self.classes_.size, rng)
        trainer = Trainer(
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=rng.integers(0, 2**31 - 1),
        )
        val_data = None
        if validation is not None:
            val_graphs, val_y = validation
            val_y = check_labels(val_y)
            val_targets = np.array([class_index[int(v)] for v in val_y])
            val_data = (self._prepare(val_graphs, fit=False), val_targets)
        self.history_ = trainer.fit(
            self.network_, inputs, targets, validation=val_data,
            epoch_callback=epoch_callback,
        )
        return self

    def predict(self, graphs: list[Graph]) -> np.ndarray:
        check_fitted(self, "network_")
        assert self.classes_ is not None
        inputs = self._prepare(graphs, fit=False)
        return self.classes_[predict_labels(self.network_, inputs)]

    def score(self, graphs: list[Graph], y: np.ndarray | list) -> float:
        y = check_labels(y)
        return float(np.mean(self.predict(graphs) == y))
