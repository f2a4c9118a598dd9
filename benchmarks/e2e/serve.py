"""Served workloads: ``python -m repro serve`` in its own process.

The generator is this process: at most two sender threads, each with one
keep-alive connection at a time.  A traced run starts a second, traced server
(``python -m benchmarks.e2e.traced_serve``) beside the plain one and
alternates short phases between the two.
"""

from __future__ import annotations

import json
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import fixtures, tracing
from benchmarks.e2e.common import Context, Result, overhead_pct, same_bits
from benchmarks.e2e.env import ROOT, child_env
from benchmarks.e2e.loadgen import PATH, Outcome, closed_loop, open_loop
from benchmarks.e2e.metrics import percentile

SETUP_REPS = 5
WARMUP_REQUESTS = 5
NOMINAL_RPS = 25.0
LADDER_RPS = (50.0, 100.0, 200.0, 400.0)
SLO_P95_MS = 100.0
LATE_MS = 10.0  # a send this far behind its due time counts as late
STARTUP_TIMEOUT_S = 60.0


class Server:
    """One server process: spawn, wait until it answers, read its memory, stop."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.argv = argv
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Seconds from spawn to the startup line plus the first ``/healthz`` 200."""
        from repro.serve.client import ServeClient

        t0 = time.perf_counter()
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, *self.argv], cwd=ROOT, env=child_env(),
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        self.url = self._startup_url()
        client = ServeClient(self.url)
        try:
            client.healthz()
        finally:
            client.close()
        return time.perf_counter() - t0

    def _startup_url(self) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while sel.select(timeout=max(0.0, deadline - time.monotonic())):
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"server exited before startup; see {self.log}")
                if line.startswith("listening on "):
                    return line.split()[2]
        raise RuntimeError(f"no startup line within {STARTUP_TIMEOUT_S:g}s; see {self.log}")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then kill if it lingers."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.communicate(timeout=20)
                return
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.communicate()


class _ServedRun:
    """Inputs, phases and expected answers of one served run."""

    def __init__(self, ctx: Context, closed: bool) -> None:
        from repro.serve.codec import graph_to_json

        self.ctx = ctx
        self.closed = closed
        self.model_path = fixtures.build("mutag", ctx.smoke)
        self.graphs = fixtures.request_graphs("mutag", ctx.seed)
        self.payloads = [{"graphs": [graph_to_json(g)]} for g in self.graphs]
        self.order = np.random.default_rng(ctx.seed).permutation(len(self.graphs)).tolist()
        self._model = None
        self._expected: dict[int, np.ndarray] = {}
        self._tags = 0

    def _tag(self) -> str:
        """A fresh hex prefix, so every request's trace id is unique."""
        self._tags += 1
        return f"{self.ctx.seed & 0xFFFF:04x}{self._tags:04x}"

    def plain_argv(self) -> list[str]:
        return ["-m", "repro", "serve", "--model", str(self.model_path), "--port", "0"]

    def phase(self, url: str, seconds: float) -> list[Outcome]:
        if self.closed:
            return closed_loop(url, self.payloads, self.order, seconds, self._tag())
        return self.open_phase(url, NOMINAL_RPS, seconds)

    def open_phase(self, url: str, rate: float, seconds: float) -> list[Outcome]:
        return open_loop(url, self.payloads, self.order, rate, seconds, self._tag())

    def warm(self, url: str) -> None:
        """A few untimed requests; the server creates its batcher on the first."""
        from repro.serve.client import ServeClient

        client = ServeClient(url)
        try:
            for graph in self.order[:WARMUP_REQUESTS]:
                client.request("POST", PATH, self.payloads[graph])
        finally:
            client.close()

    def latency(self, o: Outcome) -> float:
        """Round trip in the closed loop; from the due time in the open loop."""
        return o.done - o.sent if self.closed else o.latency

    def expected(self, graph: int) -> np.ndarray:
        """In-process ``load_model(path).predict_proba([g])`` of the same artifact."""
        if self._model is None:
            from repro.core.persistence import load_model

            self._model = load_model(self.model_path)
        if graph not in self._expected:
            self._expected[graph] = self._model.predict_proba([self.graphs[graph]])
        return self._expected[graph]

    def check(self, outcomes: list[Outcome], result: Result) -> None:
        """Non-200 answers, transport errors and wrong answers all fail."""
        for o in outcomes:
            ok = o.status == 200
            if ok:
                proba = np.asarray(json.loads(o.body)["proba"], dtype=np.float64)
                ok = same_bits(proba, self.expected(o.graph))
            result.check(ok)


def serve_seq(ctx: Context) -> Result:
    """Closed loop: one keep-alive connection, next request on each answer."""
    return _run(_ServedRun(ctx, closed=True))


def serve_open(ctx: Context) -> Result:
    """Open loop at the nominal rate over two connections at a time, due-time latency."""
    return _run(_ServedRun(ctx, closed=False))


def _run(served: _ServedRun) -> Result:
    ctx = served.ctx
    if ctx.trace:
        return _run_traced(served)
    result = Result()
    setups: list[float] = []
    server: Server | None = None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server = Server(served.plain_argv(), ctx.work / "server.log")
            setups.append(server.start())
        served.warm(server.url)
        t0 = time.perf_counter()
        outcomes = served.phase(server.url, ctx.seconds)
        wall = time.perf_counter() - t0
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    served.check(outcomes, result)
    result.setups = setups
    result.latencies = [served.latency(o) for o in outcomes]
    result.work = [[sum(o.status == 200 for o in outcomes), wall]]
    result.peak_rss_mb = rss
    if not served.closed:
        late = [1000.0 * o.lateness for o in outcomes]
        result.notes["lateness_ms"] = {"p50": percentile(late, 50), "max": max(late)}
    return result


def _run_traced(served: _ServedRun) -> Result:
    ctx = served.ctx
    result = Result()
    trace_file = ctx.work / "server-trace.json"
    plain = Server(served.plain_argv(), ctx.work / "server.log")
    traced = Server(
        ["-m", "benchmarks.e2e.traced_serve", "--trace-out", str(trace_file), *served.plain_argv()[3:]],
        ctx.work / "traced-server.log",
    )
    servers = {False: plain, True: traced}
    runs: dict[bool, list[Outcome]] = {False: [], True: []}
    max_rps = 0.0
    try:
        for server in servers.values():
            server.start()
            served.warm(server.url)
        # Short phases alternate between the servers so that drift on a
        # shared machine weighs on both sides of the overhead comparison.
        seconds = max(0.5, ctx.seconds / 10)
        for k in range(max(1, round(ctx.seconds / (2 * seconds)))):
            for is_traced in (False, True) if k % 2 == 0 else (True, False):
                runs[is_traced].extend(served.phase(servers[is_traced].url, seconds))
        records = {key: _stage_records(servers[key].url, runs[key]) for key in servers}
        if not served.closed:
            max_rps = _ladder(served, plain.url, result)
    finally:
        traced.stop()
        plain.stop()
    for outcomes in runs.values():
        served.check(outcomes, result)

    sampled = [o for o in runs[True] if o.trace_id in records[True]]
    layers, waterfall = _serve_shares(sampled, records[True], tracing.load_spans(trace_file))
    # Compared on the server's own request time: whether a response meets
    # the socket stall varies from connection to connection, and would
    # swamp the wrappers' cost in a comparison of client latencies.
    handled = {key: [r["duration_s"] for r in recs.values()] for key, recs in records.items()}
    layers["tracing_overhead"] = overhead_pct(handled[True], handled[False])
    if not served.closed:
        sends = runs[False] + runs[True]
        layers["loadgen.late_share"] = 100.0 * sum(1000.0 * o.lateness > LATE_MS for o in sends) / len(sends)
        layers["loadgen.max_rps_within_slo"] = max_rps
        result.notes["lateness_max_ms"] = 1000.0 * max(o.lateness for o in sends)
    result.layers = layers
    result.notes["waterfall_ms"] = waterfall
    return result


def _stage_records(url: str, outcomes: list[Outcome]) -> dict[str, dict]:
    """``GET /v1/traces/<id>`` of every answered request still in the
    server's bounded trace store, by trace id."""
    from repro.serve.client import ServeClient, ServeClientError

    records = {}
    client = ServeClient(url)
    try:
        for o in outcomes:
            if o.status == 200:
                try:
                    records[o.trace_id] = client.trace(o.trace_id)
                except ServeClientError:
                    pass  # evicted from the store
    finally:
        client.close()
    return records


def _ladder(served: _ServedRun, url: str, result: Result) -> float:
    """Highest rate whose due-time p95 is within the limit with no failures.

    Steps through the nominal rate, then ``LADDER_RPS``, and stops after
    the first rate that misses.  A failed request misses the limit.
    """
    best = 0.0
    seconds = max(0.5, served.ctx.seconds / 5)
    for rate in (NOMINAL_RPS, *LADDER_RPS):
        outcomes = served.open_phase(url, rate, seconds)
        served.check(outcomes, result)
        failures = sum(o.status != 200 for o in outcomes)
        p95 = percentile([1000.0 * o.latency for o in outcomes], 95)
        result.notes.setdefault("ladder", []).append({"rps": rate, "p95_ms": p95, "failed": failures})
        if failures or p95 > SLO_P95_MS:
            break
        best = rate
    return best


def _serve_shares(sampled: list[Outcome], records: dict[str, dict], spans: list[tracing.Span]):
    """Per-layer shares of the client round trip, and the mean waterfall in ms.

    The server's trace record splits each request into parse (ingress to
    enqueue), queue wait, batch wait, infer and serialize; what the round
    trip holds beyond them is ``unattributed``.  The traced server's
    spans split infer further.  A fused batch's infer time is shared by
    its requests, so span time is scaled from batch time to request time.
    """
    stages = dict.fromkeys(("parse", "queue_wait", "batch_wait", "infer", "serialize"), 0.0)
    batch_infer: dict[str, float] = {}
    rtt = 0.0
    for o in sampled:
        record = records[o.trace_id]
        rtt += o.done - o.sent
        stages["parse"] += min(s["offset_s"] for s in record["spans"])
        for s in record["spans"]:
            stages[s["name"]] = stages.get(s["name"], 0.0) + s["duration_s"]
            if s["name"] == "infer":
                batch_infer[record["batch_id"]] = s["duration_s"]
    window = tracing.roots_between(
        spans, min(o.wall_sent for o in sampled), max(o.wall_sent + o.done - o.sent for o in sampled)
    )
    model_roots = [s for s in window if s.parent is None and s.name == "model.predict"]
    scale = stages["infer"] / sum(batch_infer.values())
    model_s = scale * sum(s.duration for s in model_roots)
    unattributed = rtt - sum(stages.values())
    shares = {name: 100.0 * scale * sec / rtt for name, sec in tracing.metric_seconds(window).items()}
    shares.update(
        {
            "serve.http.parse": 100.0 * stages["parse"] / rtt,
            "serve.batcher.queue_wait": 100.0 * stages["queue_wait"] / rtt,
            "serve.batcher.batch_wait": 100.0 * stages["batch_wait"] / rtt,
            "serve.infer.self": 100.0 * max(0.0, stages["infer"] - model_s) / rtt,
            "serve.http.serialize": 100.0 * stages["serialize"] / rtt,
            "unattributed": 100.0 * unattributed / rtt,
            "serve.batcher.batch_size": float(np.mean([s.n for s in model_roots])),
            "alignment.centrality.calls_per_graph": tracing.centrality_calls_per_graph(window),
        }
    )
    n = len(sampled)
    waterfall = {name: 1000.0 * sec / n for name, sec in stages.items()}
    waterfall.update(unattributed=1000.0 * unattributed / n, round_trip=1000.0 * rtt / n, requests=n)
    return shares, waterfall
