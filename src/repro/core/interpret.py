"""Interpreting DeepMap predictions.

Because the deep graph feature map is a *sum* of deep vertex feature
maps (the summation readout), a prediction can be attributed back to
vertices.  Two attribution methods:

* :func:`vertex_contributions` — linear attribution: each vertex's deep
  feature map is pushed through the (locally linearised) dense head and
  scored for the predicted class.  Exact for the final linear layer,
  first-order for the ReLU dense stack.
* :func:`occlusion_scores` — model-agnostic: point one vertex's
  receptive-field rows at the zero row at a time and measure the
  predicted-class logit drop.  Exact but ``n`` forward passes per graph.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.model import DeepMapClassifier
from repro.graph.graph import Graph
from repro.utils.validation import check_fitted

__all__ = ["vertex_contributions", "occlusion_scores"]


def vertex_contributions(
    model: DeepMapClassifier, graph: Graph, target_class: int | None = None
) -> np.ndarray:
    """Per-vertex first-order contribution to the class logit.

    Computes the gradient of the target-class logit w.r.t. the summed
    deep feature map and dots it with each vertex's deep feature map —
    a Taylor attribution that is exact when the dense head is linear in
    the readout (it is, up to the ReLU/dropout nonlinearity).
    """
    check_fitted(model, "network_")
    assert model.network_ is not None
    vertex_maps = model.transform_vertices([graph])[0]  # (n, c)
    graph_map = vertex_maps.sum(axis=0)

    # Forward the readout through the dense head, caching for backward.
    from repro.nn.pooling import Flatten, SumPool1D

    layers = model.network_.layers
    readout_index = next(
        i for i, l in enumerate(layers) if isinstance(l, (SumPool1D, Flatten))
    )
    head = layers[readout_index + 1 :]
    x = graph_map[None, :]
    for layer in head:
        x = layer.forward(x, training=False)
    logits = x[0]
    cls = int(np.argmax(logits)) if target_class is None else int(target_class)

    grad = np.zeros((1, logits.size))
    grad[0, cls] = 1.0
    for layer in reversed(head):
        grad = layer.backward(grad)
    sensitivity = grad[0]  # d logit / d readout
    return vertex_maps @ sensitivity


def occlusion_scores(
    model: DeepMapClassifier, graph: Graph, target_class: int | None = None
) -> np.ndarray:
    """Per-vertex logit drop when the vertex is occluded.

    Occlusion zeroes every receptive-field row belonging to the vertex's
    sequence slot (its whole local patch) by pointing those cells of the
    row-index table at the zero feature row, re-runs the network, and
    reports ``logit(original) - logit(occluded)`` for the target class.
    """
    check_fitted(model, "network_")
    assert model.network_ is not None
    from repro.core.receptive_field import DUMMY
    from repro.nn.model import predict_logits

    encoded = model.encode([graph], fit=False)
    base_logits = predict_logits(model.network_, encoded)[0]
    cls = int(np.argmax(base_logits)) if target_class is None else int(target_class)

    r = encoded.r
    zero_row = len(encoded.features) - 1
    drops = np.zeros((1, encoded.w), dtype=np.float64)
    for slot in np.flatnonzero(encoded.slots[0] != DUMMY):
        occluded = replace(encoded, rows=encoded.rows.copy())
        occluded.rows[0, slot * r : (slot + 1) * r] = zero_row
        logits = predict_logits(model.network_, occluded)[0]
        drops[0, slot] = base_logits[cls] - logits[cls]
    return encoded.to_vertices(drops, [graph])[0]
