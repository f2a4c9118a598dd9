"""Wire formats: JSON and binary CSR graphs <-> :class:`repro.graph.Graph`.

**JSON** (``application/json``): one graph is the JSON object
counterpart of the TU benchmark format (:mod:`repro.datasets.tu_format`)
— the same three per-graph ingredients — vertex count, undirected edge
list, optional vertex labels — keyed explicitly instead of split across
``DS_A.txt`` / ``DS_graph_indicator`` / ``DS_node_labels`` files::

    {"num_vertices": 5,
     "edges": [[0, 1], [1, 2], [1, 3], [2, 4], [3, 4]],
     "labels": [1, 4, 3, 3, 2]}          # optional; defaults to all zeros

Vertex ids are 0-based (the in-memory convention) rather than the TU
files' 1-based global ids; each undirected edge appears once.  A predict
request wraps a list of such graphs::

    {"graphs": [...], "model": "default", "timeout_ms": 2000}

``model`` and ``timeout_ms`` are optional.

**Binary CSR** (``application/x-repro-graph``): a whole batch of graphs
ships as four flat int64 tensors — the disjoint-union CSR form every
encoder hot path already consumes (:attr:`repro.graph.Graph.csr`) —
wrapped in the checksummed :func:`repro.utils.wire.seal` envelope with a
:func:`~repro.utils.wire.pack_message` payload (JSON header + raw
little/native-endian array segments, no pickle)::

    seal(pack_message(
        {"kind": "predict_request", "model": ..., "timeout_ms": ...},
        {"num_vertices": (G,),   # vertices per graph
         "indptr":       (sum n_i + G,),   # per-graph CSR offsets, concatenated
         "indices":      (sum deg_i,),     # per-graph neighbor ids, concatenated
         "labels":       (sum n_i,)}))     # per-graph vertex labels, concatenated

Responses use the same envelope (``kind: "predict_response"`` /
``"predict_proba_response"``) carrying ``labels`` (int64) or ``proba``
(float64) as a raw tensor, so a binary response is *bitwise* the
server-side numpy result — exactly what the JSON path guarantees via
shortest-repr float round-tripping, proven equal in
``tests/serve/test_differential.py``.

Decoding is strict: the CSR arrays must be the canonical form
:class:`~repro.graph.Graph` itself produces (sorted neighbor lists,
symmetric adjacency, no self-loops).  All parse errors — JSON or binary,
including torn/corrupt envelopes — raise :class:`CodecError` (a
``ValueError``) whose message is safe to return in a 400 response; a
malformed frame can never crash a batcher or pool worker.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.graph.graph import Graph
from repro.utils import wire

__all__ = [
    "BINARY_CONTENT_TYPE",
    "CodecError",
    "JSON_CONTENT_TYPE",
    "arrays_to_graphs",
    "decode_predict_response",
    "encode_predict_request",
    "encode_predict_response",
    "graph_from_json",
    "graph_to_json",
    "graphs_to_arrays",
    "parse_predict_request",
    "parse_predict_request_binary",
]

#: Content type negotiating the binary CSR wire format.
BINARY_CONTENT_TYPE = "application/x-repro-graph"

#: Content type of the default JSON wire format.
JSON_CONTENT_TYPE = "application/json"

#: Size ceiling for one request body in either codec (64 MiB): a hostile
#: length field must not make the server allocate unboundedly.
MAX_BINARY_REQUEST = 64 << 20

#: Per-request graph-count ceiling: a single oversized request must not
#: be able to monopolise the batcher (requests larger than ``max_batch``
#: still run, but as their own batch).
MAX_GRAPHS_PER_REQUEST = 1024


class CodecError(ValueError):
    """Malformed request payload; the message is client-safe."""


def graph_from_json(obj: Any) -> Graph:
    """Build a :class:`Graph` from its JSON-object form (validated)."""
    if not isinstance(obj, dict):
        raise CodecError(f"graph must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {"num_vertices", "edges", "labels"}
    if unknown:
        raise CodecError(f"unknown graph fields: {sorted(unknown)}")
    try:
        n = int(obj["num_vertices"])
    except KeyError:
        raise CodecError("graph is missing 'num_vertices'") from None
    except (TypeError, ValueError):
        raise CodecError("'num_vertices' must be an integer") from None
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise CodecError("'edges' must be a list of [u, v] pairs")
    pairs: list[tuple[int, int]] = []
    for i, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise CodecError(f"edge {i} must be a [u, v] pair")
        try:
            pairs.append((int(edge[0]), int(edge[1])))
        except (TypeError, ValueError):
            raise CodecError(f"edge {i} endpoints must be integers") from None
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise CodecError("'labels' must be a list of integers")
        try:
            labels = [int(v) for v in labels]
        except (TypeError, ValueError):
            raise CodecError("'labels' must be a list of integers") from None
    try:
        return Graph(n, pairs, labels)
    except ValueError as exc:  # out-of-range edge, self-loop, bad labels...
        raise CodecError(f"invalid graph: {exc}") from None


def graph_to_json(graph: Graph) -> dict:
    """JSON-object form of ``graph`` (inverse of :func:`graph_from_json`)."""
    return {
        "num_vertices": graph.n,
        "edges": [[int(u), int(v)] for u, v in graph.edges],
        "labels": [int(label) for label in graph.labels],
    }


def parse_predict_request(
    body: bytes,
) -> tuple[list[Graph], str | None, float | None]:
    """Parse a predict request body.

    Returns ``(graphs, model_name, timeout_s)`` where ``model_name`` and
    ``timeout_s`` are ``None`` when the request leaves them to the
    server's defaults.
    """
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CodecError("request body must be a JSON object")
    unknown = set(payload) - {"graphs", "model", "timeout_ms"}
    if unknown:
        raise CodecError(f"unknown request fields: {sorted(unknown)}")
    raw_graphs = payload.get("graphs")
    if not isinstance(raw_graphs, list) or not raw_graphs:
        raise CodecError("'graphs' must be a non-empty list")
    if len(raw_graphs) > MAX_GRAPHS_PER_REQUEST:
        raise CodecError(
            f"too many graphs in one request "
            f"({len(raw_graphs)} > {MAX_GRAPHS_PER_REQUEST})"
        )
    graphs = [graph_from_json(g) for g in raw_graphs]
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise CodecError("'model' must be a string")
    timeout_s: float | None = None
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        try:
            timeout_s = float(timeout_ms) / 1000.0
        except (TypeError, ValueError):
            raise CodecError("'timeout_ms' must be a number") from None
        if timeout_s <= 0:
            raise CodecError("'timeout_ms' must be > 0")
    return graphs, model, timeout_s


# ----------------------------------------------------------------------
# Binary CSR batch form (shared by the wire codec and the pool handoff)
# ----------------------------------------------------------------------

def graphs_to_arrays(graphs: list[Graph]) -> dict[str, np.ndarray]:
    """Flatten a batch of graphs into four int64 CSR tensors.

    The inverse of :func:`arrays_to_graphs`.  Per-graph ``indptr``
    arrays (each ``n_i + 1`` long) are concatenated as-is — offsets stay
    graph-local, which keeps every segment independently verifiable and
    the split trivially vectorized.
    """
    num_vertices = np.array([g.n for g in graphs], dtype=np.int64)
    indptrs, indices, labels = [], [], []
    for g in graphs:
        indptr, index = g.csr
        indptrs.append(indptr)
        indices.append(index)
        labels.append(g.labels)
    empty = np.empty(0, dtype=np.int64)
    return {
        "num_vertices": num_vertices,
        "indptr": np.concatenate(indptrs) if indptrs else empty,
        "indices": np.concatenate(indices) if indices else empty,
        "labels": np.concatenate(labels) if labels else empty,
    }


def _as_i64(arrays: dict, name: str) -> np.ndarray:
    try:
        arr = arrays[name]
    except KeyError:
        raise CodecError(f"binary request is missing array {name!r}") from None
    arr = np.asarray(arr)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise CodecError(f"array {name!r} must be a 1-D integer tensor")
    return arr.astype(np.int64, copy=False)


def arrays_to_graphs(arrays: dict[str, np.ndarray]) -> list[Graph]:
    """Rebuild the graph batch a :func:`graphs_to_arrays` dict describes.

    Strictly validated: segment lengths must agree with ``num_vertices``,
    every ``indptr`` must be a monotone 0-based offset array, and the
    adjacency must be the canonical CSR :class:`Graph` itself produces —
    anything else raises :class:`CodecError` (HTTP 400), so a malformed
    or adversarial payload can never crash an inference worker or decode
    into a graph that would not round-trip.
    """
    sizes = _as_i64(arrays, "num_vertices")
    indptr_flat = _as_i64(arrays, "indptr")
    indices_flat = _as_i64(arrays, "indices")
    labels_flat = _as_i64(arrays, "labels")
    unknown = set(arrays) - {"num_vertices", "indptr", "indices", "labels"}
    if unknown:
        raise CodecError(f"unknown binary request arrays: {sorted(unknown)}")
    if sizes.size > MAX_GRAPHS_PER_REQUEST:
        raise CodecError(
            f"too many graphs in one request "
            f"({sizes.size} > {MAX_GRAPHS_PER_REQUEST})"
        )
    if sizes.size and sizes.min() < 0:
        raise CodecError("'num_vertices' entries must be >= 0")
    if indptr_flat.size != int(sizes.sum()) + sizes.size:
        raise CodecError("'indptr' length disagrees with 'num_vertices'")
    if labels_flat.size != int(sizes.sum()):
        raise CodecError("'labels' length disagrees with 'num_vertices'")

    # Everything below is validated over the *flattened batch* — one
    # vectorized pass per invariant instead of a numpy-call cascade per
    # graph — then the per-graph segments are adopted wholesale.  The
    # invariants are exactly the ones ``Graph.__init__`` derives, so a
    # decoded graph is indistinguishable from one built edge by edge.
    num_graphs = sizes.size
    ptr_starts = np.concatenate([[0], np.cumsum(sizes + 1)])
    lab_starts = np.concatenate([[0], np.cumsum(sizes)])

    def _graph_of_vertex(pos: int) -> int:
        return int(np.searchsorted(lab_starts, pos, side="right")) - 1

    # Offsets: each segment starts at 0 and never steps backwards.
    if num_graphs and np.any(indptr_flat[ptr_starts[:-1]] != 0):
        k = int(np.nonzero(indptr_flat[ptr_starts[:-1]] != 0)[0][0])
        raise CodecError(
            f"graph {k}: 'indptr' is not a monotone 0-based offset array"
        )
    steps = np.diff(indptr_flat)
    seg_boundary = np.zeros(max(steps.size, 0), dtype=bool)
    inner = ptr_starts[1:-1]
    seg_boundary[inner - 1] = True
    degrees = steps[~seg_boundary]  # per-vertex degrees, all graphs
    if np.any(degrees < 0):
        k = _graph_of_vertex(int(np.nonzero(degrees < 0)[0][0]))
        raise CodecError(
            f"graph {k}: 'indptr' is not a monotone 0-based offset array"
        )
    # Neighbor-array extents per graph (last offset of each segment).
    deg_totals = indptr_flat[ptr_starts[1:] - 1] if num_graphs else sizes
    promised = np.cumsum(deg_totals)
    if num_graphs and promised[-1] > indices_flat.size:
        k = int(np.searchsorted(promised, indices_flat.size, side="right"))
        raise CodecError(f"graph {k}: 'indices' is shorter than 'indptr' promises")
    total_edges = int(promised[-1]) if num_graphs else 0
    if total_edges != indices_flat.size:
        raise CodecError(
            f"{indices_flat.size - total_edges} trailing 'indices' entries"
        )
    idx_starts = np.concatenate([[0], promised])

    edge_gid = np.repeat(np.arange(num_graphs, dtype=np.int64), deg_totals)
    if indices_flat.size:
        bad = (indices_flat < 0) | (indices_flat >= sizes[edge_gid])
        if np.any(bad):
            pos = int(np.nonzero(bad)[0][0])
            k = int(edge_gid[pos])
            raise CodecError(
                f"graph {k}: neighbor id out of range for n={int(sizes[k])}"
            )
    # Graph-local source vertex of every directed edge.
    local_ids = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(
        lab_starts[:-1], sizes
    )
    src = np.repeat(local_ids, degrees)
    loops = src == indices_flat
    if np.any(loops):
        k = int(edge_gid[int(np.nonzero(loops)[0][0])])
        raise CodecError(
            f"graph {k}: adjacency is not canonical CSR (self-loop)"
        )
    # Strictly increasing within each row <=> sorted and duplicate-free.
    if indices_flat.size > 1:
        row_starts = np.cumsum(degrees)[:-1]
        same_row = np.ones(indices_flat.size - 1, dtype=bool)
        row_starts = row_starts[(row_starts > 0) & (row_starts < indices_flat.size)]
        same_row[row_starts - 1] = False
        unsorted = same_row & (np.diff(indices_flat) <= 0)
        if np.any(unsorted):
            k = int(edge_gid[int(np.nonzero(unsorted)[0][0])])
            raise CodecError(
                f"graph {k}: adjacency is not canonical CSR (rows not sorted unique)"
            )
    # Symmetry: the directed pair set must be closed under swap.  Pairs
    # compare as composite int64 keys (gid, u, v); if a pathological
    # batch would overflow the key space, fall back to per-graph checks.
    lo = src < indices_flat
    n_max = int(sizes.max()) if num_graphs else 0
    if n_max and num_graphs * n_max * n_max < 2**62:
        forward = (edge_gid[lo] * n_max + src[lo]) * n_max + indices_flat[lo]
        hi = ~lo
        backward = (edge_gid[hi] * n_max + indices_flat[hi]) * n_max + src[hi]
        # Rows sorted by (gid, src, dst) make `forward` already sorted.
        symmetric = forward.size == backward.size and np.array_equal(
            forward, np.sort(backward)
        )
        if not symmetric:
            fwd_count = np.bincount(edge_gid[lo], minlength=num_graphs)
            bwd_count = np.bincount(edge_gid[hi], minlength=num_graphs)
            uneven = np.nonzero(fwd_count != bwd_count)[0]
            if uneven.size:
                k = int(uneven[0])
            else:
                diff = np.nonzero(forward != np.sort(backward))[0]
                k = int(forward[diff[0]] // (n_max * n_max))
            raise CodecError(
                f"graph {k}: adjacency is not canonical CSR (asymmetric)"
            )
    elif n_max:
        for k in range(num_graphs):
            try:
                Graph._from_csr(
                    int(sizes[k]),
                    indptr_flat[ptr_starts[k] : ptr_starts[k + 1]],
                    indices_flat[idx_starts[k] : idx_starts[k + 1]],
                    labels_flat[lab_starts[k] : lab_starts[k + 1]],
                )
            except ValueError as exc:
                raise CodecError(f"graph {k}: invalid graph: {exc}") from None
    if labels_flat.size and labels_flat.min() < 0:
        k = _graph_of_vertex(int(np.nonzero(labels_flat < 0)[0][0]))
        raise CodecError(
            f"graph {k}: invalid graph: labels must be non-negative integers"
        )

    # All invariants hold: adopt per-graph copies of every segment.  The
    # copies matter — the flats belong to the caller, who may reuse or
    # mutate them after decode.
    edges_flat = np.column_stack([src[lo], indices_flat[lo]])
    edge_counts = np.bincount(edge_gid[lo], minlength=num_graphs)
    edge_starts = np.concatenate([[0], np.cumsum(edge_counts)])
    graphs: list[Graph] = []
    for k, n in enumerate(sizes.tolist()):
        graphs.append(
            Graph._adopt(
                n,
                indptr_flat[ptr_starts[k] : ptr_starts[k + 1]].copy(),
                indices_flat[idx_starts[k] : idx_starts[k + 1]].copy(),
                labels_flat[lab_starts[k] : lab_starts[k + 1]].copy(),
                edges_flat[edge_starts[k] : edge_starts[k + 1]].copy(),
            )
        )
    return graphs


# ----------------------------------------------------------------------
# Binary envelope encode/decode
# ----------------------------------------------------------------------

def _open_binary(body: bytes, expected_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Unseal + unpack one binary body; every failure is a CodecError."""
    try:
        header, arrays = wire.unpack_message(
            wire.unseal(body, max_bytes=MAX_BINARY_REQUEST)
        )
    except wire.WireError as exc:
        raise CodecError(f"bad binary frame: {exc}") from None
    kind = header.get("kind")
    if kind != expected_kind:
        raise CodecError(
            f"binary frame kind {kind!r} (expected {expected_kind!r})"
        )
    return header, arrays


def encode_predict_request(
    graphs: list[Graph],
    model: str | None = None,
    timeout_ms: float | None = None,
) -> bytes:
    """Encode a predict request in the binary CSR wire format."""
    header: dict = {"kind": "predict_request"}
    if model is not None:
        header["model"] = model
    if timeout_ms is not None:
        header["timeout_ms"] = timeout_ms
    return wire.seal(wire.pack_message(header, graphs_to_arrays(graphs)))


def parse_predict_request_binary(
    body: bytes,
) -> tuple[list[Graph], str | None, float | None]:
    """Binary counterpart of :func:`parse_predict_request`.

    Same return contract — ``(graphs, model_name, timeout_s)`` — so the
    HTTP layer treats the two codecs identically past the parse.
    """
    header, arrays = _open_binary(body, "predict_request")
    unknown = set(header) - {"kind", "model", "timeout_ms"}
    if unknown:
        raise CodecError(f"unknown binary request fields: {sorted(unknown)}")
    model = header.get("model")
    if model is not None and not isinstance(model, str):
        raise CodecError("'model' must be a string")
    timeout_s: float | None = None
    timeout_ms = header.get("timeout_ms")
    if timeout_ms is not None:
        try:
            timeout_s = float(timeout_ms) / 1000.0
        except (TypeError, ValueError):
            raise CodecError("'timeout_ms' must be a number") from None
        if timeout_s <= 0:
            raise CodecError("'timeout_ms' must be > 0")
    graphs = arrays_to_graphs(arrays)
    if not graphs:
        raise CodecError("binary request carries no graphs")
    return graphs, model, timeout_s


def encode_predict_response(body: dict) -> bytes:
    """Encode a predict/predict_proba response body in binary form.

    ``body`` is exactly the dict the JSON path would serialize —
    ``labels`` (ndarray/list, int) or ``proba`` (ndarray/list, float)
    plus the ``model`` / ``version`` / ``classes`` / ``trace_id`` /
    ``canary`` metadata — so the two codecs cannot drift on content.
    """
    header = {k: v for k, v in body.items() if k not in ("labels", "proba")}
    arrays: dict[str, np.ndarray] = {}
    if "proba" in body:
        header["kind"] = "predict_proba_response"
        arrays["proba"] = np.asarray(body["proba"], dtype=np.float64)
    else:
        header["kind"] = "predict_response"
        arrays["labels"] = np.asarray(body["labels"], dtype=np.int64)
    return wire.seal(wire.pack_message(header, arrays))


def decode_predict_response(body: bytes) -> dict:
    """Decode a binary response back into the JSON-shaped body dict.

    ``proba`` / ``labels`` come back as ndarrays (bitwise the server's
    tensors); everything else is the header metadata.
    """
    try:
        header, arrays = wire.unpack_message(
            wire.unseal(body, max_bytes=MAX_BINARY_REQUEST)
        )
    except wire.WireError as exc:
        raise CodecError(f"bad binary frame: {exc}") from None
    kind = header.pop("kind", None)
    if kind not in ("predict_response", "predict_proba_response"):
        raise CodecError(f"unexpected binary response kind {kind!r}")
    out = dict(header)
    if kind == "predict_proba_response":
        if "proba" not in arrays:
            raise CodecError("binary predict_proba response lacks 'proba'")
        out["proba"] = arrays["proba"]
    else:
        if "labels" not in arrays:
            raise CodecError("binary predict response lacks 'labels'")
        out["labels"] = arrays["labels"]
    return out
