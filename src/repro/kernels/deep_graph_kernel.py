"""DGK — Deep Graph Kernels (Yanardag & Vishwanathan, KDD 2015).

DGK replaces the identity substructure-similarity matrix of an
R-convolution kernel with ``M = E E^T`` where ``E`` holds latent
substructure embeddings learned with language-model techniques:

    K(G1, G2) = phi(G1) M phi(G2)^T = <phi(G1) E, phi(G2) E>

Because ``M`` factors, we compute the PSD gram matrix directly from the
projected features ``phi E``.

The embedding model is a from-scratch skip-gram with negative sampling
(no gensim offline): the "corpus" contains one sentence per graph listing
its substructure words (WL colors across iterations, per vertex), and
words co-occurring within a sentence window are trained to be similar —
mirroring DGK's corpus construction for deep WL kernels.
"""

from __future__ import annotations

import numpy as np

from repro.features.vertex_maps import (
    VertexFeatureExtractor,
    WLVertexFeatures,
    extract_vertex_feature_matrices,
)
from repro.features.vocabulary import FeatureTable
from repro.graph.graph import Graph
from repro.kernels.base import GraphKernel
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

__all__ = ["DeepGraphKernel", "SkipGramEmbedding"]


class SkipGramEmbedding:
    """Skip-gram with negative sampling over integer-token sentences.

    A minimal word2vec: for each (center, context) pair drawn from a
    sliding window, maximise ``sigma(e_c . o_x)`` against ``k`` negative
    samples drawn from the unigram distribution raised to 3/4.
    """

    def __init__(
        self,
        dim: int = 16,
        window: int = 5,
        negatives: int = 5,
        epochs: int = 3,
        lr: float = 0.05,
        seed: int | None = 0,
    ) -> None:
        check_positive("dim", dim)
        check_positive("window", window)
        check_positive("negatives", negatives)
        check_positive("epochs", epochs)
        check_positive("lr", lr)
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.lr = lr
        self.seed = seed

    def fit(self, sentences: list[list[int]], vocab_size: int) -> np.ndarray:
        """Train and return the ``(vocab_size, dim)`` input embedding matrix."""
        rng = as_rng(self.seed)
        scale = 1.0 / self.dim
        e_in = rng.uniform(-scale, scale, size=(vocab_size, self.dim))
        e_out = np.zeros((vocab_size, self.dim))

        counts = np.bincount(
            np.concatenate([np.asarray(s, dtype=np.int64) for s in sentences if s])
            if any(sentences)
            else np.zeros(0, dtype=np.int64),
            minlength=vocab_size,
        ).astype(np.float64)
        noise = counts**0.75
        total = noise.sum()
        noise = noise / total if total > 0 else np.full(vocab_size, 1.0 / vocab_size)

        for _ in range(self.epochs):
            order = rng.permutation(len(sentences))
            for si in order:
                sentence = sentences[si]
                for pos, center in enumerate(sentence):
                    lo = max(0, pos - self.window)
                    hi = min(len(sentence), pos + self.window + 1)
                    for ctx_pos in range(lo, hi):
                        if ctx_pos == pos:
                            continue
                        self._update(
                            e_in, e_out, center, sentence[ctx_pos], noise, rng
                        )
        return e_in

    def _update(
        self,
        e_in: np.ndarray,
        e_out: np.ndarray,
        center: int,
        context: int,
        noise: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        negs = rng.choice(noise.size, size=self.negatives, p=noise)
        targets = np.concatenate([[context], negs])
        labels = np.zeros(targets.size)
        labels[0] = 1.0
        v = e_in[center]
        u = e_out[targets]
        scores = 1.0 / (1.0 + np.exp(-np.clip(u @ v, -35.0, 35.0)))
        grad = (scores - labels)[:, None]
        e_in[center] -= self.lr * (grad * u).sum(axis=0)
        e_out[targets] -= self.lr * grad * v[None, :]


class DeepGraphKernel(GraphKernel):
    """Deep WL kernel: substructure embeddings modulate the base kernel.

    Parameters
    ----------
    extractor:
        Vertex feature extractor whose keys become the vocabulary
        (default: WL subtrees with h=2, the paper's strongest DGK variant).
    embedding:
        The skip-gram trainer; pass a configured
        :class:`SkipGramEmbedding` to tune dims/epochs.
    """

    name = "dgk"

    def __init__(
        self,
        extractor: VertexFeatureExtractor | None = None,
        embedding: SkipGramEmbedding | None = None,
    ) -> None:
        self.extractor = extractor if extractor is not None else WLVertexFeatures(h=2)
        self.embedding = embedding if embedding is not None else SkipGramEmbedding()

    def gram(self, graphs: list[Graph]) -> np.ndarray:
        table, vocab = extract_vertex_feature_matrices(graphs, self.extractor)
        sizes = [g.n for g in graphs]
        e = self.embedding.fit(self._sentences(table, sizes), vocab.size)
        projected = table.segment_sums(sizes) @ e
        return projected @ projected.T

    @staticmethod
    def _sentences(table: FeatureTable, sizes: list[int]) -> list[list[int]]:
        """One sentence per graph: vertex by vertex, each vertex's columns
        in ascending (key ``repr``) order, each repeated by its count."""
        rows = np.repeat(np.arange(len(table)), np.diff(table.indptr))
        order = np.lexsort((table.indices, rows))
        repeats = table.values[order].astype(np.int64)
        tokens = np.repeat(table.indices[order], repeats)
        graph = np.repeat(np.arange(len(sizes)), sizes)[rows]
        ends = np.cumsum(np.bincount(graph, repeats, len(sizes))).astype(np.int64)
        return [part.tolist() for part in np.split(tokens, ends[:-1])]
