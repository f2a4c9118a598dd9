"""DeepMap estimator: the paper's end-to-end model (Algorithm 1 + Fig. 4).

``DeepMapClassifier`` bundles a vertex-feature extractor (GK / SP / WL), a
:class:`DeepMapEncoder` and the CNN into a fit/predict estimator.  The
three named variants of the paper are the factory helpers
:func:`deepmap_gk`, :func:`deepmap_sp`, :func:`deepmap_wl`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.architecture import build_deepmap_cnn
from repro.core.pipeline import DeepMapEncoder, EncodedDataset
from repro.features.vertex_maps import (
    GraphletVertexFeatures,
    ShortestPathVertexFeatures,
    VertexFeatureExtractor,
    WLVertexFeatures,
    cached_vertex_counts,
)
from repro.features.vocabulary import FeatureTable, FeatureVocabulary
from repro.graph.graph import Graph
from repro.nn.model import History, Trainer, predict_labels, predict_proba
from repro.utils.rng import as_rng
from repro.utils.validation import check_fitted, check_labels, check_positive

__all__ = ["DeepMapClassifier", "deepmap_gk", "deepmap_sp", "deepmap_wl"]

_EXTRACTORS = {
    "gk": GraphletVertexFeatures,
    "sp": ShortestPathVertexFeatures,
    "wl": WLVertexFeatures,
}


class DeepMapClassifier:
    """Graph classifier learning deep representations of feature maps.

    Parameters
    ----------
    feature_map:
        "gk" / "sp" / "wl" (with default extractor settings) or a
        configured :class:`VertexFeatureExtractor`.
    r:
        Receptive-field size (paper default 5; swept in Fig. 5).
    ordering:
        Vertex-alignment measure ("eigenvector", the paper's choice).
    readout:
        "sum" (paper) or "concat" (Section 6 ablation).
    epochs / batch_size:
        Training protocol (paper: batch size from {32, 256}).
    max_features:
        Optional cap on the vertex-feature dimension ``m``: keep the
        ``max_features`` most frequent substructures (by total count on
        the training set).  Section 6 notes the feature-map dimension
        "may be very high and leads to low efficiency for CNNs"; this is
        the standard frequency-truncation mitigation.  ``None`` keeps
        everything (the paper's setting); otherwise it must be >= 1.
    seed:
        Controls initialisation, dropout and shuffling.
    cache:
        Optional :class:`repro.cache.FeatureMapCache` memoizing vertex
        counts and encodings; ``None`` (default) uses the
        process-wide cache when one is configured.
    """

    def __init__(
        self,
        feature_map: str | VertexFeatureExtractor = "wl",
        r: int = 5,
        ordering: str = "eigenvector",
        readout: str = "sum",
        epochs: int = 50,
        batch_size: int = 32,
        max_features: int | None = None,
        seed: int | None = 0,
        cache=None,
    ) -> None:
        if isinstance(feature_map, str):
            if feature_map not in _EXTRACTORS:
                raise ValueError(
                    f"unknown feature map {feature_map!r}; choose from "
                    f"{sorted(_EXTRACTORS)} or pass an extractor"
                )
            self.extractor: VertexFeatureExtractor = _EXTRACTORS[feature_map]()
        else:
            self.extractor = feature_map
        if max_features is not None:
            check_positive("max_features", max_features)
        self.r = r
        self.ordering = ordering
        self.readout = readout
        self.epochs = epochs
        self.batch_size = batch_size
        self.max_features = max_features
        self.seed = seed
        self.cache = cache

        self.vocabulary_: FeatureVocabulary | None = None
        self.encoder_: DeepMapEncoder | None = None
        self.network_ = None
        self.classes_: np.ndarray | None = None
        self.history_: History | None = None

    # ------------------------------------------------------------------
    def _feature_table(self, graphs: list[Graph], fit_vocabulary: bool) -> FeatureTable:
        with obs.span(
            "feature_map", extractor=self.extractor.name, graphs=len(graphs)
        ):
            with obs.span("extract"):
                counts = cached_vertex_counts(self.extractor, graphs, cache=self.cache)
            if fit_vocabulary:
                self.vocabulary_ = FeatureVocabulary.from_counts(
                    [counts], self.max_features
                )
            assert self.vocabulary_ is not None
            with obs.span("vectorize", m=self.vocabulary_.size):
                return self.vocabulary_.vectorize_rows(counts)

    def encode(self, graphs: list[Graph], fit: bool = False):
        """Vertex feature maps -> Algorithm 1 encoding of ``graphs``."""
        if not fit:
            check_fitted(self, "encoder_")
        table = self._feature_table(graphs, fit_vocabulary=fit)
        if fit:
            self.encoder_ = DeepMapEncoder(r=self.r, ordering=self.ordering).fit(graphs)
        assert self.encoder_ is not None
        return self.encoder_.encode(graphs, table, cache=self.cache)

    # ------------------------------------------------------------------
    def fit(
        self,
        graphs: list[Graph],
        y: np.ndarray | list,
        validation: tuple[list[Graph], np.ndarray] | None = None,
        epoch_callback=None,
    ) -> "DeepMapClassifier":
        """Extract features, encode, train the CNN.

        ``validation`` (graphs, labels) adds per-epoch validation accuracy
        to ``history_`` for the epoch-selection protocol.
        """
        y = check_labels(y)
        if len(graphs) != y.size:
            raise ValueError(f"{len(graphs)} graphs but {y.size} labels")
        with obs.span(
            "fit", model=f"deepmap-{self.extractor.name}", graphs=len(graphs)
        ):
            self.classes_ = np.unique(y)
            class_index = {int(c): i for i, c in enumerate(self.classes_)}
            targets = np.array([class_index[int(v)] for v in y])

            encoded = self.encode(graphs, fit=True)
            rng = as_rng(self.seed)
            self.network_ = build_deepmap_cnn(
                m=encoded.m,
                r=self.r,
                num_classes=self.classes_.size,
                readout=self.readout,
                w=encoded.w,
                rng=rng,
            )
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
                val_encoded = self.encode(val_graphs, fit=False)
                val_data = (val_encoded, val_targets)
            with obs.span("train", epochs=self.epochs, batch_size=self.batch_size):
                self.history_ = trainer.fit(
                    self.network_,
                    encoded,
                    targets,
                    validation=val_data,
                    epoch_callback=epoch_callback,
                )
        return self

    def fit_stream(
        self,
        stream,
        shard_size: int = 64,
        epoch_callback=None,
    ) -> "DeepMapClassifier":
        """Out-of-core fit on a streamed dataset.

        ``stream`` is a
        :class:`~repro.datasets.streaming.StreamingGraphDataset`
        (``make_dataset(..., stream=True)``).  Shards of ``shard_size``
        graphs are regenerated from seeds, encoded once and spilled to
        the feature-map cache; training gathers mini-batches shard by
        shard.  The fitted model — weights, history, predictions — is
        **bitwise-identical** to ``fit(stream.materialize().graphs,
        stream.labels())``, at peak memory bounded by a few shards
        instead of the whole dataset.  See ``docs/STREAMING.md``.
        """
        from repro.stream import fit_stream as _fit_stream

        return _fit_stream(
            self,
            stream,
            shard_size=shard_size,
            epoch_callback=epoch_callback,
        )

    # ------------------------------------------------------------------
    def _chunks(self, graphs: list[Graph], chunk_size: int | None):
        """Yield ``graphs`` in encode-sized chunks (one chunk when None).

        Every inference stage — feature extraction, alignment, receptive
        fields, the CNN forward — is per-graph independent, so chunking
        changes peak memory (one chunk's feature rows and row-index table
        at a time instead of the whole list's) but never the results:
        outputs are bitwise-identical for any ``chunk_size``.
        """
        if chunk_size is None:
            yield graphs
            return
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(graphs), chunk_size):
            yield graphs[start : start + chunk_size]

    def predict(
        self, graphs: list[Graph], chunk_size: int | None = None
    ) -> np.ndarray:
        """Predicted class labels for held-out graphs.

        ``chunk_size`` bounds inference memory: graphs are encoded and
        classified ``chunk_size`` at a time instead of encoding the whole
        list at once.
        """
        check_fitted(self, "network_")
        assert self.classes_ is not None
        idx = np.concatenate(
            [
                predict_labels(self.network_, self.encode(chunk, fit=False))
                for chunk in self._chunks(graphs, chunk_size)
            ]
        )
        return self.classes_[idx]

    def predict_proba(
        self, graphs: list[Graph], chunk_size: int | None = None
    ) -> np.ndarray:
        """Class-probability matrix for held-out graphs.

        ``chunk_size`` bounds inference memory exactly as in
        :meth:`predict`; results are bitwise-identical either way.
        """
        check_fitted(self, "network_")
        return np.concatenate(
            [
                predict_proba(self.network_, self.encode(chunk, fit=False))
                for chunk in self._chunks(graphs, chunk_size)
            ]
        )

    def score(self, graphs: list[Graph], y: np.ndarray | list) -> float:
        """Classification accuracy."""
        y = check_labels(y)
        return float(np.mean(self.predict(graphs) == y))

    def transform(self, graphs: list[Graph]) -> np.ndarray:
        """Deep graph feature maps: activations after the summation layer.

        The dense low-dimensional representation the paper's title refers
        to — usable as a graph embedding for downstream tasks.
        """
        return self._conv_activations(self.encode(graphs)).sum(axis=1)

    def transform_vertices(self, graphs: list[Graph]) -> list[np.ndarray]:
        """Deep *vertex* feature maps (paper, Section 7: "the learned deep
        feature map of each vertex can also be considered as vertex
        embedding and used for vertex classification").

        Returns one ``(graph.n, c)`` array per graph: the last
        convolution layer's activation at each vertex's sequence slot,
        re-indexed so row ``v`` is vertex ``v`` of the input graph.
        """
        encoded = self.encode(graphs)
        return encoded.to_vertices(self._conv_activations(encoded), graphs)

    def _conv_activations(self, encoded: EncodedDataset) -> np.ndarray:
        """Activations after the last conv/ReLU, shape ``(B, w, c)``."""
        check_fitted(self, "network_")
        assert self.network_ is not None
        from repro.nn.model import predict_logits
        from repro.nn.module import Sequential
        from repro.nn.pooling import Flatten, SumPool1D

        layers = self.network_.layers
        readout = next(
            i for i, l in enumerate(layers) if isinstance(l, (SumPool1D, Flatten))
        )
        return predict_logits(Sequential(layers[:readout]), encoded)


def deepmap_gk(
    k: int = 5, samples: int = 20, r: int = 5, seed: int | None = 0, **kwargs
) -> DeepMapClassifier:
    """DeepMap-GK: deep maps over sampled graphlet features."""
    return DeepMapClassifier(
        GraphletVertexFeatures(k=k, samples=samples, seed=seed), r=r, seed=seed, **kwargs
    )


def deepmap_sp(r: int = 5, seed: int | None = 0, **kwargs) -> DeepMapClassifier:
    """DeepMap-SP: deep maps over shortest-path triplet features."""
    return DeepMapClassifier(ShortestPathVertexFeatures(), r=r, seed=seed, **kwargs)


def deepmap_wl(h: int = 3, r: int = 5, seed: int | None = 0, **kwargs) -> DeepMapClassifier:
    """DeepMap-WL: deep maps over WL subtree features."""
    return DeepMapClassifier(WLVertexFeatures(h=h), r=r, seed=seed, **kwargs)
