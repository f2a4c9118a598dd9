"""Spans around the calls into each layer, recorded from outside ``src/``.

:class:`Instrumentation` replaces each traced name at the place it is
looked up — ``repro.core.pipeline.centrality_scores`` is the name
``DeepMapEncoder.encode`` calls, ``repro.core.model.cached_vertex_counts``
the one ``DeepMapClassifier`` calls — with a wrapper that records a span
and calls the original.  NN layers are traced per instance and keyed by
their index in ``Sequential.layers``.  :meth:`Instrumentation.remove`
restores every original, so traced and untraced operations can alternate
in one process.

Spans are kept in memory (:class:`Tracer`) and written out once, when the
run ends.  A span's *self time* is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name, whether args[1] is the list of graphs).
TARGETS = (
    ("repro.core.model", "cached_vertex_counts", "features.extract", False),
    ("repro.features.vocabulary", "FeatureVocabulary.vectorize_rows", "features.vectorize", False),
    ("repro.core.pipeline", "centrality_scores", "alignment.centrality", False),
    ("repro.core.pipeline", "union_vertex_order", "alignment.union_order", False),
    ("repro.core.pipeline", "all_receptive_fields_many", "receptive_field.fields", False),
    ("repro.core.pipeline", "DeepMapEncoder.encode", "pipeline.encode", True),
    ("repro.core.model", "DeepMapClassifier.predict_proba", "model.predict", True),
    ("repro.core.model", "DeepMapClassifier.fit", "model.fit", False),
    ("repro.nn.model", "Trainer.fit", "nn.trainer", False),
    ("repro.nn.optimizers", "SGD.step", "nn.optimizer.step", False),
    ("repro.nn.optimizers", "RMSprop.step", "nn.optimizer.step", False),
    ("repro.nn.optimizers", "Adam.step", "nn.optimizer.step", False),
    ("repro.cache", "FeatureMapCache.get", "cache.get", False),
    ("repro.cache", "FeatureMapCache.put", "cache.put", False),
)

#: Span names whose self time is reported under another metric name.
SPAN_METRIC = {
    "op": "unattributed",
    "pipeline.encode": "pipeline.encode.self",
    "model.predict": "model.self",
    "model.fit": "model.self",
    "nn.trainer": "nn.trainer.self",
}


class Span:
    """One call: name, enclosing span, wall-clock start of a root span, and
    ``n``, the number of graphs where the call takes a list of them."""

    __slots__ = ("name", "parent", "n", "ts", "start", "end")

    def __init__(self, name: str, parent: Span | None, n: int) -> None:
        self.name = name
        self.parent = parent
        self.n = n
        self.ts = time.time() if parent is None else 0.0
        self.start = time.perf_counter()
        self.end: float | None = None

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start

    @property
    def root(self) -> Span:
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """In-memory span store; one stack of open spans per thread.

    Recording is kept to an append and a few attribute writes per call,
    without locks (``list.append`` is atomic), because every traced call
    pays for it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def begin(self, name: str, n: int = 0) -> Span:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None, n)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def dump(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, None if s.parent is None else index[id(s.parent)], s.n, s.ts, s.start, s.end]
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}))


def load_spans(path: Path) -> list[Span]:
    spans: list[Span] = []
    for name, parent, n, ts, start, end in json.loads(path.read_text())["spans"]:
        span = Span(name, None if parent is None else spans[parent], n)
        span.ts, span.start, span.end = ts, start, end
        spans.append(span)
    return spans


def roots_between(spans: list[Span], lo: float, hi: float) -> list[Span]:
    """The spans whose root span began (wall clock) within ``[lo, hi]``."""
    return [s for s in spans if lo <= s.root.ts <= hi]


class Instrumentation:
    """Install (and later remove) the span wrappers on ``tracer``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._layers: list[object] = []

    def install(self) -> "Instrumentation":
        for module_name, path, span_name, sized in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original, sized))
        from repro.nn.module import Sequential

        for attr in ("forward", "backward"):
            original = vars(Sequential)[attr]
            self._saved.append((Sequential, attr, original))
            setattr(Sequential, attr, self._instrumenting(original))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for layer in self._layers:
            vars(layer).pop("forward", None)
            vars(layer).pop("backward", None)
        self._layers.clear()

    def _wrap(self, name: str, fn, sized: bool):
        begin, end = self.tracer.begin, self.tracer.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(name, len(args[1]) if sized else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return traced

    def _instrumenting(self, original):
        """``Sequential.forward``/``backward`` that first wraps its layers."""

        @functools.wraps(original)
        def run(network, *args, **kwargs):
            for index, layer in enumerate(network.layers):
                if "forward" in vars(layer):
                    continue
                label = f"L{index}_{type(layer).__name__}" if layer.parameters() else "other"
                layer.forward = self._wrap(f"nn.{label}.fwd", layer.forward, False)
                layer.backward = self._wrap(f"nn.{label}.bwd", layer.backward, False)
                self._layers.append(layer)
            return original(network, *args, **kwargs)

        return run


@contextmanager
def traced(tracer: Tracer):
    """Wrappers installed for the duration of the ``with`` block."""
    instrumentation = Instrumentation(tracer).install()
    try:
        yield
    finally:
        instrumentation.remove()


def metric_seconds(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per per-layer metric (a span's children run
    one after another, never side by side)."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] += span.duration
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[SPAN_METRIC.get(span.name, span.name)] += span.duration - children[id(span)]
    return out


def centrality_calls_per_graph(spans: list[Span]) -> float:
    calls = sum(1 for s in spans if s.name == "alignment.centrality")
    graphs = sum(s.n for s in spans if s.name == "pipeline.encode")
    return calls / graphs if graphs else 0.0


def op_shares(spans: list[Span]) -> dict[str, float]:
    """Each layer's self time as a percentage of the ``op`` root spans."""
    total = sum(s.duration for s in spans if s.name == "op")
    return {name: 100.0 * sec / total for name, sec in metric_seconds(spans).items()}
