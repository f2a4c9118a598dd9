"""Vertex and graph feature maps (paper Definitions 2 and 3)."""

from repro.features.path_patterns import PathPatternVertexFeatures
from repro.features.walks import (
    LabeledWalkVertexFeatures,
    ReturnProbabilityVertexFeatures,
)
from repro.features.vertex_maps import (
    GraphletVertexFeatures,
    OneHotLabelFeatures,
    ShortestPathVertexFeatures,
    VertexFeatureExtractor,
    WLVertexFeatures,
    cached_vertex_counts,
    extract_vertex_feature_matrices,
    graph_feature_maps,
    wl_stable_colors,
    wl_stable_colors_many,
)
from repro.features.vocabulary import FeatureTable, FeatureVocabulary

__all__ = [
    "FeatureTable",
    "FeatureVocabulary",
    "VertexFeatureExtractor",
    "GraphletVertexFeatures",
    "OneHotLabelFeatures",
    "PathPatternVertexFeatures",
    "LabeledWalkVertexFeatures",
    "ReturnProbabilityVertexFeatures",
    "ShortestPathVertexFeatures",
    "WLVertexFeatures",
    "cached_vertex_counts",
    "extract_vertex_feature_matrices",
    "graph_feature_maps",
    "wl_stable_colors",
    "wl_stable_colors_many",
]
