"""The dist request/reply protocol and the run-spec registry.

One connection carries a sequence of frames (:mod:`repro.utils.wire`);
each frame is a :func:`~repro.utils.wire.pack_message` payload — a JSON
header plus named tensors.  Requests carry ``{"op": <OP_*>, ...}``;
replies carry ``{"ok": bool, ...}`` and, on failure, an ``"error"``
string (the worker's exception text — a protocol error never kills a
connection silently).

Operations
----------
``ping``
    Liveness probe; echoes the worker's id.  The coordinator's
    heartbeat monitor sends these on a dedicated connection.
``info``
    Worker identity + shard assignment + cache stats (diagnostics, and
    the coordinator's registration handshake).
``warm``
    Hands the worker a run spec and its peer list: the worker builds its
    :class:`~repro.datasets.streaming.StreamingGraphDataset` view,
    plugs a :class:`~repro.dist.client.RemoteCacheClient` into its local
    cache as the remote tier, and (for kernel runs) precomputes its own
    shard's vertex counts into the cache — the state every later
    ``run_fold`` builds on.
``kv_get`` / ``kv_put``
    The KV tensor interface: payloads of the local
    :class:`~repro.cache.FeatureMapCache` addressed by the existing
    content-addressed keys (``counts``/``enc`` namespaces).
    ``kv_get`` answers from the *local* tiers only (``local_only=True``)
    so two workers that both miss can never recurse into each other.
``run_fold``
    Execute one CV fold — the exact :func:`repro.eval.protocol._kernel_fold`
    / ``_neural_fold`` body, fault points included — and return its
    result dict plus captured obs/cache deltas.
``shutdown``
    Stop the worker's accept loop after replying.

Run specs
---------
A *run spec* is a JSON dict that lets any worker reconstruct the full
evaluation context from nothing but the message — no fork-inherited
state, which is what keeps the protocol host-agnostic:

``{"protocol": "kernel"|"neural", "model": <registry name>,
"dataset": {"name", "scale", "seed"}, "n_splits": int, "seed": int,
"epochs": int (neural), "c_grid": [floats] (kernel),
"normalize": bool (kernel)}``

``kernel_for`` / ``model_factory_for`` are the canonical model
registries (the CLI's ``--model`` choices delegate here), so a spec
names a model the same way on every host and build.
"""

from __future__ import annotations

from repro.utils.wire import pack_message, recv_frame, send_frame, unpack_message

__all__ = [
    "OP_PING",
    "OP_INFO",
    "OP_WARM",
    "OP_KV_GET",
    "OP_KV_PUT",
    "OP_RUN_FOLD",
    "OP_SHUTDOWN",
    "KERNEL_MODELS",
    "NEURAL_MODELS",
    "kernel_for",
    "model_factory_for",
    "dataset_from_spec",
    "send_message",
    "recv_message",
]

OP_PING = "ping"
OP_INFO = "info"
OP_WARM = "warm"
OP_KV_GET = "kv_get"
OP_KV_PUT = "kv_put"
OP_RUN_FOLD = "run_fold"
OP_SHUTDOWN = "shutdown"

#: Kernel-protocol model names (the CLI's ``*-svm`` choices).
KERNEL_MODELS = ("wl-svm", "sp-svm", "gk-svm")

#: Neural-protocol model names (the CLI's neural choices).
NEURAL_MODELS = (
    "deepmap-wl",
    "deepmap-sp",
    "deepmap-gk",
    "gin",
    "gcn",
    "gat",
    "dgcnn",
    "dcnn",
    "ngf",
    "patchysan",
)


def kernel_for(model: str):
    """The kernel instance a model name denotes, or ``None`` if neural.

    The canonical registry: the CLI and every dist worker construct the
    identical kernel (same hyperparameters, same cache keys, same
    journal run keys) from the same name.
    """
    from repro.kernels import (
        GraphletKernel,
        ShortestPathKernel,
        WeisfeilerLehmanKernel,
    )

    kernels = {
        "wl-svm": lambda: WeisfeilerLehmanKernel(3),
        "sp-svm": lambda: ShortestPathKernel(),
        "gk-svm": lambda: GraphletKernel(k=4, samples=10, seed=0),
    }
    make = kernels.get(model)
    return make() if make is not None else None


def model_factory_for(model: str, epochs: int):
    """The neural ``factory(fold_seed)`` a model name denotes, or ``None``."""
    from repro.baselines import (
        DCNNClassifier,
        DGCNNClassifier,
        GATClassifier,
        GCNClassifier,
        GINClassifier,
        NGFClassifier,
        PatchySanClassifier,
    )
    from repro.core import deepmap_gk, deepmap_sp, deepmap_wl

    neural = {
        "deepmap-wl": lambda f: deepmap_wl(h=3, r=5, epochs=epochs, seed=f),
        "deepmap-sp": lambda f: deepmap_sp(r=5, epochs=epochs, seed=f),
        "deepmap-gk": lambda f: deepmap_gk(k=4, samples=10, r=5, epochs=epochs, seed=f),
        "gin": lambda f: GINClassifier(epochs=epochs, seed=f),
        "gcn": lambda f: GCNClassifier(epochs=epochs, seed=f),
        "gat": lambda f: GATClassifier(epochs=epochs, seed=f),
        "dgcnn": lambda f: DGCNNClassifier(epochs=epochs, seed=f),
        "dcnn": lambda f: DCNNClassifier(epochs=epochs, seed=f),
        "ngf": lambda f: NGFClassifier(epochs=epochs, seed=f),
        "patchysan": lambda f: PatchySanClassifier(epochs=epochs, seed=f),
    }
    return neural.get(model)


def dataset_from_spec(spec: dict):
    """The :class:`StreamingGraphDataset` a run spec's dataset denotes.

    ``(name, scale, seed)`` fully determines the dataset (generation is
    deterministic), so every worker and the coordinator reconstruct the
    byte-identical seed block independently.
    """
    from repro.datasets import make_dataset

    return make_dataset(
        spec["name"],
        scale=float(spec["scale"]),
        seed=spec["seed"],
        stream=True,
    )


def send_message(sock, header: dict, arrays=None) -> int:
    """Send one protocol message; returns wire bytes written."""
    return send_frame(sock, pack_message(header, arrays))


def recv_message(sock, *, allow_pickle: bool = False, on_timeout=None):
    """Receive one protocol message; ``None`` on clean peer close.

    ``on_timeout`` is forwarded to :func:`repro.utils.wire.recv_frame`:
    socket timeouts become callback ticks with the partial frame buffer
    preserved (the coordinator's claim-heartbeat hook).
    """
    payload = recv_frame(sock, on_timeout=on_timeout)
    if payload is None:
        return None
    return unpack_message(payload, allow_pickle=allow_pickle)
