"""GNN baselines of the paper's evaluation (Tables 3, 4, 5)."""

from repro.baselines.common import (
    GNNBaseline,
    PaddedBatch,
    normalized_adjacency,
    pad_graph_batch,
)
from repro.baselines.dcnn import DCNNClassifier, DCNNNetwork, diffusion_features
from repro.baselines.dgcnn import DGCNNClassifier, DGCNNNetwork, SortPooling
from repro.baselines.gat import GATClassifier, GATNetwork
from repro.baselines.gcn import GCNClassifier, GCNNetwork
from repro.baselines.ngf import NGFClassifier, NGFNetwork
from repro.baselines.gin import GINClassifier, GINNetwork
from repro.baselines.patchysan import PatchySanClassifier, encode_patchysan

__all__ = [
    "GNNBaseline",
    "PaddedBatch",
    "pad_graph_batch",
    "normalized_adjacency",
    "GINClassifier",
    "GINNetwork",
    "DGCNNClassifier",
    "DGCNNNetwork",
    "SortPooling",
    "DCNNClassifier",
    "DCNNNetwork",
    "diffusion_features",
    "PatchySanClassifier",
    "encode_patchysan",
    "GCNClassifier",
    "GCNNetwork",
    "GATClassifier",
    "GATNetwork",
    "NGFClassifier",
    "NGFNetwork",
]
