#!/usr/bin/env python
"""Graph kernels and feature maps from the inside (Figs. 1-2, Eq. 7).

Shows the library's substructure machinery directly:

* Fig. 1: the two connected graphlets of size 3, found by exhaustive
  enumeration;
* Fig. 2: one iteration of Weisfeiler-Lehman refinement on the paper's
  example graph;
* Definitions 2/3 + Equation 7: vertex feature maps summing to the graph
  feature map;
* all seven kernels' normalised similarity between two example graphs.

Run:  python examples/kernel_feature_maps.py
"""

import numpy as np

from repro.features import (
    ShortestPathVertexFeatures,
    WLVertexFeatures,
    extract_vertex_feature_matrices,
    graph_feature_maps,
)
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_graphlets,
    wl_iterations,
)
from repro.kernels import (
    DeepGraphKernel,
    GraphNeuralTangentKernel,
    GraphletKernel,
    RandomWalkKernel,
    ReturnProbabilityKernel,
    ShortestPathKernel,
    WeisfeilerLehmanKernel,
)


def figure1() -> None:
    print("=== Fig. 1: connected size-3 graphlets ===")
    host = complete_graph(4)  # contains triangles
    chain = cycle_graph(5)  # contains paths
    triangles = enumerate_graphlets(host, 3)
    paths = enumerate_graphlets(chain, 3)
    print(f"  K4 contains {sum(triangles.values())} graphlets of "
          f"{len(triangles)} type(s) (triangles)")
    print(f"  C5 contains {sum(paths.values())} graphlets of "
          f"{len(paths)} type(s) (paths)")


def figure2() -> None:
    print("\n=== Fig. 2: one WL iteration on the paper's example ===")
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)], [1, 4, 3, 3, 2])
    iters = wl_iterations(g, 1)
    print("  labels before:", iters[0].tolist())
    print("  labels after: ", iters[1].tolist())
    print("  (vertex 1, label 4, neighbors {1,3,3} -> a new compressed label)")


def equation7() -> None:
    print("\n=== Definition 3 + Equation 7 ===")
    g = cycle_graph(6).with_labels([0, 1, 0, 1, 0, 1])
    extractor = WLVertexFeatures(h=1)
    table, vocab = extract_vertex_feature_matrices([g], extractor)
    vertex_maps = table.dense(np.arange(g.n))
    phi, _ = graph_feature_maps([g], extractor)
    print(f"  vertex feature maps: {vertex_maps.shape} "
          f"({vocab.size} subtree patterns)")
    print("  sum of vertex maps == graph map:",
          bool(np.allclose(vertex_maps.sum(axis=0), phi[0])))


def kernel_zoo() -> None:
    print("\n=== normalised kernel similarities: C6 vs C6 / C6 vs K6 ===")
    graphs = [cycle_graph(6), cycle_graph(6), complete_graph(6)]
    kernels = [
        GraphletKernel(k=4, samples=10, seed=0),
        ShortestPathKernel(),
        WeisfeilerLehmanKernel(2),
        RandomWalkKernel(steps=3),
        ReturnProbabilityKernel(steps=8),
        DeepGraphKernel(),
        GraphNeuralTangentKernel(blocks=2, mlp_layers=1),
    ]
    for kernel in kernels:
        gram = kernel.normalized_gram(graphs)
        print(f"  {kernel.name:<7s} k(C6, C6) = {gram[0, 1]:.3f}   "
              f"k(C6, K6) = {gram[0, 2]:.3f}")


def main() -> None:
    figure1()
    figure2()
    equation7()
    kernel_zoo()


if __name__ == "__main__":
    main()
