"""Closed-loop and due-time open-loop request generators.

Both send single-graph ``POST /v1/predict_proba`` requests through
keep-alive :class:`repro.serve.client.ServeClient` connections and keep
every response body, so the caller can check each answer.

The open loop differs from ``repro.serve.loadgen.run_load``: latency
counts from the time a request was *due* on the shared schedule, not
from when a busy connection finally sent it.  A stall therefore shows
up in every request queued behind it, as independent users would see
it, and the run reports how late the generator itself was.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.serve.client import ServeClient

PATH = "/v1/predict_proba"
#: Sender threads of the open loop, each with one connection at a time:
#: sized for a 2-CPU machine that also runs the server.
SENDERS = 2
#: Requests an open-loop sender makes on one connection before it opens
#: the next.  Independent users come and go with connections of their
#: own.  Whether a keep-alive connection meets the socket stall on most
#: of its responses is a draw made once per connection, so with two
#: connections for a whole run the median due-time latency read either
#: about 13 ms or about 54 ms; over a few dozen connections a run reads
#: the share of them that stall instead.
REQUESTS_PER_CONNECTION = 10


@dataclass
class Outcome:
    """One request: which graph, when it was due, sent and answered."""

    graph: int
    trace_id: str
    due: float
    sent: float
    done: float
    wall_sent: float
    status: int | None  # None: transport error
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def _send(client: ServeClient, payload: dict, graph: int, trace_id: str, due: float) -> Outcome:
    wall = time.time()
    sent = time.perf_counter()
    try:
        status, _, body = client.request("POST", PATH, payload, trace_id=trace_id)
    except OSError:
        status, body = None, b""
    return Outcome(graph, trace_id, due, sent, time.perf_counter(), wall, status, body)


def closed_loop(url: str, payloads: list[dict], order: list[int], seconds: float, tag: str) -> list[Outcome]:
    """One keep-alive connection; the next request goes when the last returns."""
    client = ServeClient(url)
    outcomes: list[Outcome] = []
    try:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            k = len(outcomes)
            graph = order[k % len(order)]
            outcomes.append(_send(client, payloads[graph], graph, f"{tag}{k:08x}", time.perf_counter()))
    finally:
        client.close()
    return outcomes


def open_loop(url: str, payloads: list[dict], order: list[int], rate: float, seconds: float, tag: str) -> list[Outcome]:
    """Requests due every ``1/rate`` s, shared by ``SENDERS`` connections.

    Each thread takes the next ticket of one schedule, sleeps until it is
    due (or sends at once when already late) and records the outcome; it
    opens a new connection after every ``REQUESTS_PER_CONNECTION``.  The
    calling thread is one of the senders.
    """
    lock = threading.Lock()
    next_ticket = 0
    count = int(rate * seconds)
    per_thread: list[list[Outcome]] = [[] for _ in range(SENDERS)]
    start = time.perf_counter() + 0.01

    def sender(slot: int) -> None:
        nonlocal next_ticket
        client = ServeClient(url)
        try:
            while True:
                with lock:
                    ticket, next_ticket = next_ticket, next_ticket + 1
                if ticket >= count:
                    return
                due = start + ticket / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if per_thread[slot] and len(per_thread[slot]) % REQUESTS_PER_CONNECTION == 0:
                    client.close()
                    client = ServeClient(url)
                graph = order[ticket % len(order)]
                per_thread[slot].append(_send(client, payloads[graph], graph, f"{tag}{ticket:08x}", due))
        finally:
            client.close()

    helpers = [threading.Thread(target=sender, args=(slot,), daemon=True) for slot in range(1, SENDERS)]
    for helper in helpers:
        helper.start()
    try:
        sender(0)
    finally:
        for helper in helpers:
            helper.join()
    return sorted((o for outcomes in per_thread for o in outcomes), key=lambda o: o.due)
