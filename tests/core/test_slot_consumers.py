"""Consumers of the encoder's slot -> vertex table.

``EncodedDataset.slots`` records the centrality order the encoder
computed once per graph.  Vertex embeddings, occlusion attribution and
the vertex classifier map slot outputs back to vertices through it, so
each of them runs eigenvector centrality once per graph, and their
outputs equal the per-graph ``vertex_sequence`` mapping.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.alignment as alignment
from repro.core import (
    DeepMapVertexClassifier,
    centrality_scores,
    deepmap_wl,
    occlusion_scores,
    vertex_sequence,
)
from repro.features import WLVertexFeatures
from repro.graph import Graph, ensure_connected, erdos_renyi
from repro.nn.losses import softmax
from repro.nn.model import predict_logits


def _graphs() -> list[Graph]:
    rng = np.random.default_rng(11)
    graphs = []
    for i in range(6):
        g = ensure_connected(erdos_renyi(7, 0.3 if i % 2 else 0.6, rng), rng)
        graphs.append(g.with_labels((np.arange(7) % 3).tolist()))
    return graphs


def _held_out() -> list[Graph]:
    """Edgeless (all tied), disconnected, and larger than the fitted w=7."""
    return [
        Graph(4, [], [0, 1, 0, 2]),
        Graph(6, [(0, 1), (1, 2), (3, 4)], [0, 0, 1, 2, 2, 0]),
        Graph(10, [(i, (i + 1) % 10) for i in range(10)], [i % 3 for i in range(10)]),
    ]


def _sequences(graphs: list[Graph], w: int) -> list[np.ndarray]:
    return [
        vertex_sequence(g, centrality_scores(g, "eigenvector"), "eigenvector")[:w]
        for g in graphs
    ]


@pytest.fixture(scope="module")
def graph_model():
    graphs = _graphs()
    model = deepmap_wl(h=1, r=2, epochs=2, seed=0)
    model.fit(graphs, np.arange(len(graphs)) % 2)
    return model


@pytest.fixture(scope="module")
def vertex_model():
    graphs = _graphs()
    model = DeepMapVertexClassifier(WLVertexFeatures(h=1), r=2, epochs=2, seed=0)
    model.fit(graphs, [(g.degrees() >= 3).astype(int) for g in graphs])
    return model


@pytest.fixture
def centrality_calls(monkeypatch):
    calls = []
    original = alignment.eigenvector_centrality

    def counting(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(alignment, "eigenvector_centrality", counting)
    return calls


class TestOneCentralityPerGraph:
    @pytest.mark.parametrize(
        "consumer", ["transform", "transform_vertices", "predict_proba"]
    )
    def test_graph_model(self, graph_model, centrality_calls, consumer):
        graphs = _held_out()
        getattr(graph_model, consumer)(graphs)
        assert len(centrality_calls) == len(graphs)

    def test_occlusion(self, graph_model, centrality_calls):
        for g in _held_out():
            occlusion_scores(graph_model, g)
        assert len(centrality_calls) == len(_held_out())

    @pytest.mark.parametrize("consumer", ["predict", "predict_proba"])
    def test_vertex_model(self, vertex_model, centrality_calls, consumer):
        graphs = _held_out()
        getattr(vertex_model, consumer)(graphs)
        assert len(centrality_calls) == len(graphs)

    def test_vertex_model_fit(self, centrality_calls):
        graphs = _graphs()
        DeepMapVertexClassifier(r=2, epochs=1, seed=0).fit(
            graphs, [np.zeros(g.n, dtype=int) for g in graphs]
        )
        assert len(centrality_calls) == len(graphs)


class TestMatchesVertexSequence:
    def test_transform_vertices(self, graph_model):
        graphs = _held_out()
        encoded = graph_model.encode(graphs)
        activations = graph_model._conv_activations(encoded)
        got = graph_model.transform_vertices(graphs)
        for gi, (g, seq) in enumerate(zip(graphs, _sequences(graphs, encoded.w))):
            want = np.zeros((g.n, activations.shape[2]))
            for slot, v in enumerate(seq):
                want[v] = activations[gi, slot]
            assert got[gi].tobytes() == want.tobytes()

    def test_occlusion_scores(self, graph_model):
        for g in _held_out():
            # Oracle: zero the slot's rows of the dense input tensor.
            encoded = graph_model.encode([g])
            dense = encoded.take_rows(np.arange(1))
            base = predict_logits(graph_model.network_, dense)[0]
            cls = int(np.argmax(base))
            want = np.zeros(g.n)
            r = encoded.r
            for slot, v in enumerate(_sequences([g], encoded.w)[0]):
                occluded = dense.copy()
                occluded[0, slot * r : (slot + 1) * r] = 0.0
                want[v] = base[cls] - predict_logits(graph_model.network_, occluded)[0][cls]
            assert occlusion_scores(graph_model, g).tobytes() == want.tobytes()

    def test_vertex_model_outputs(self, vertex_model):
        graphs = _held_out()
        encoded = vertex_model._encode(graphs, fit=False)
        logits = vertex_model.network_.forward(
            encoded.take_rows(np.arange(len(graphs))), training=False
        )
        probs = softmax(logits)
        got_labels = vertex_model.predict(graphs)
        got_probs = vertex_model.predict_proba(graphs)
        for gi, (g, seq) in enumerate(zip(graphs, _sequences(graphs, encoded.w))):
            labels = np.zeros(g.n, dtype=np.int64)
            p = np.zeros((g.n, probs.shape[-1]))
            for slot, v in enumerate(seq):
                labels[v] = vertex_model.classes_[int(np.argmax(logits[gi, slot]))]
                p[v] = probs[gi, slot]
            assert got_labels[gi].dtype == labels.dtype
            assert got_labels[gi].tobytes() == labels.tobytes()
            assert got_probs[gi].tobytes() == p.tobytes()

    def test_slot_targets(self):
        graphs = _graphs()
        targets = [(g.degrees() >= 3).astype(np.int64) + 5 for g in graphs]
        model = DeepMapVertexClassifier(r=2, epochs=0, seed=0)
        model.fit(graphs, targets)
        encoded = model._encode(graphs, fit=False)
        got = model._slot_targets(encoded, targets)
        want = np.zeros((len(graphs), encoded.w), dtype=np.int64)
        index = {c: i for i, c in enumerate(model.classes_.tolist())}
        for gi, seq in enumerate(_sequences(graphs, encoded.w)):
            for slot, v in enumerate(seq):
                want[gi, slot] = index[int(targets[gi][v])]
        assert got.tobytes() == want.tobytes()
