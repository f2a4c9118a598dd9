"""Encoder oracles: the staged, per-graph encode and the dense per-slot
assembly behind :mod:`repro.core.pipeline`, and the per-vertex
receptive-field stacking behind :mod:`repro.core.receptive_field`."""

from __future__ import annotations

import numpy as np

from repro.core.alignment import centrality_scores, vertex_sequence
from repro.core.receptive_field import DUMMY, all_receptive_fields, receptive_field
from repro.graph.graph import Graph


def _reference_all_receptive_fields(
    g: Graph, r: int, scores: np.ndarray
) -> np.ndarray:
    """Original per-vertex stacking loop (oracle for tests/equivalence)."""
    return np.stack([receptive_field(g, v, r, scores) for v in range(g.n)])


def _reference_encode_stages(
    graphs: list[Graph],
    feature_matrices: list[np.ndarray],
    w: int,
    r: int,
    m: int,
    ordering: str = "eigenvector",
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-fusion staged encode (oracle for tests/equivalence).

    Exactly the old pipeline body: per-graph vertex sequences, per-graph
    receptive-field tables, then the per-graph assembly of
    :func:`_assemble`.
    """
    all_scores = [centrality_scores(g, ordering) for g in graphs]
    sequences = [
        vertex_sequence(g, scores, ordering)[:w]
        for g, scores in zip(graphs, all_scores)
    ]
    all_fields = [
        all_receptive_fields(g, r, scores)
        for g, scores in zip(graphs, all_scores)
    ]
    return _assemble(feature_matrices, sequences, all_fields, w, r, m)


def _assemble(
    feature_matrices: list[np.ndarray],
    sequences: list[np.ndarray],
    all_fields: list[np.ndarray],
    w: int,
    r: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tensor assembly: one gather per graph instead of one
    zero-fill + gather per sequence slot.

    Dummy field slots index row 0 via a clamped gather, then get zeroed
    by boolean assignment — identical rows to the reference's
    ``rows[real] = feats[field[real]]`` construction.
    """
    n = len(feature_matrices)
    tensors = np.zeros((n, w * r, m), dtype=np.float64)
    vertex_mask = np.zeros((n, w), dtype=np.float64)
    for gi, (feats, sequence, fields) in enumerate(
        zip(feature_matrices, sequences, all_fields)
    ):
        slots = len(sequence)
        if slots == 0:
            continue
        vertex_mask[gi, :slots] = 1.0
        seq_fields = fields[sequence]  # (slots, r)
        real = seq_fields != DUMMY
        block = feats[np.where(real, seq_fields, 0)]  # (slots, r, m)
        block[~real] = 0.0
        tensors[gi, : slots * r] = block.reshape(slots * r, m)
    return tensors, vertex_mask


def _reference_assemble(
    feature_matrices: list[np.ndarray],
    sequences: list[np.ndarray],
    all_fields: list[np.ndarray],
    w: int,
    r: int,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Original per-slot assembly loop (oracle for tests/equivalence)."""
    n = len(feature_matrices)
    tensors = np.zeros((n, w * r, m), dtype=np.float64)
    vertex_mask = np.zeros((n, w), dtype=np.float64)
    for gi, (feats, sequence, fields) in enumerate(
        zip(feature_matrices, sequences, all_fields)
    ):
        for slot, v in enumerate(sequence):
            vertex_mask[gi, slot] = 1.0
            field = fields[v]
            real = field != DUMMY
            rows = np.zeros((r, m), dtype=np.float64)
            rows[real] = feats[field[real]]
            tensors[gi, slot * r : (slot + 1) * r] = rows
    return tensors, vertex_mask


def dense_input(encoded) -> np.ndarray:
    """Every graph's dense ``(w * r, m)`` CNN input, in graph order: what
    :func:`_assemble` builds, gathered through ``take_rows``."""
    return encoded.take_rows(np.arange(encoded.shape[0]))
