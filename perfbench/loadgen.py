"""Open-loop ``/v1`` query generator: one process, at most two connections.

Requests are due on a fixed-rate schedule (request ``i`` is due at
``t0 + i / rate``), whatever the server is doing; a sender that falls
behind sends late and the lateness shows as generator lag.  Latency is
timed from each request's *due* time, so a stall also charges the wait it
imposes on the requests queued behind it.

Every request carries an ``X-Request-Id``.  A response counts as
succeeded only when it is a 200 that echoes that id, carries no
``Deprecation`` header (only the legacy ``/predict/*`` aliases send one)
and has the ``/v1`` envelope.  Refused connections, time-outs, sheds and
errors all count as failed.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Query families, taken in turn: equal shares, as in the repository's
#: own serving bench (``repro.perf._serving_request_mix``).  No measured
#: traffic exists for this system, so the mix is an assumption.
FAMILIES = ("retweet", "link", "timestamp", "influential")
#: Zipf exponent of query sources over users: an assumption too (the
#: sources are skewed, as a few users are queried far more than the rest;
#: the exponent is not measured).
ZIPF_S = 1.1
CANDIDATES = 8
WORDS = 6
LINK_PAIRS = 4
TIMEOUT_S = 5.0


def query_mix(
    rng: np.random.Generator,
    count: int,
    num_users: int,
    vocab_size: int,
    num_topics: int,
) -> list[tuple[str, dict]]:
    """``count`` seeded ``/v1`` queries: families in turn, Zipf sources,
    uniform topics."""
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_S
    weights /= weights.sum()
    user_of_rank = rng.permutation(num_users)
    sources = user_of_rank[rng.choice(num_users, size=count, p=weights)]
    mix: list[tuple[str, dict]] = []
    for index, source in enumerate(sources):
        family = FAMILIES[index % len(FAMILIES)]
        source = int(source)
        words = [int(w) for w in rng.integers(0, vocab_size, WORDS)]
        if family == "retweet":
            body = {
                "source": source,
                "candidates": [int(u) for u in rng.integers(0, num_users, CANDIDATES)],
                "words": words,
            }
        elif family == "link":
            body = {
                "sources": [source] * LINK_PAIRS,
                "targets": [int(u) for u in rng.integers(0, num_users, LINK_PAIRS)],
            }
        elif family == "timestamp":
            body = {"author": source, "words": words}
        else:
            body = {"topic": int(rng.integers(0, num_topics)), "size": 4,
                    "top_users": 10}
        mix.append((f"/v1/query/{family}", body))
    return mix


@dataclass
class Outcome:
    """One request as the generator saw it (times are ``perf_counter``)."""

    path: str
    request_id: str
    due: float
    sent: float
    done: float
    status: int
    ok: bool
    shed: bool
    error: str | None
    generation: int | None
    result: object = None
    #: The ``(path, body)`` that was sent, for the answer check.
    request: tuple | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return max(self.sent - self.due, 0.0)


class Client:
    """One keep-alive HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def query(self, path: str, body: dict, request_id: str, due: float) -> Outcome:
        payload = json.dumps(body)
        sent = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=TIMEOUT_S
                )
            self._conn.request(
                "POST",
                path,
                body=payload,
                headers={"Content-Type": "application/json",
                         "X-Request-Id": request_id},
            )
            response = self._conn.getresponse()
            raw = response.read()
            done = time.perf_counter()
            status = response.status
            echoed = response.getheader("X-Request-Id")
            deprecated = response.getheader("Deprecation")
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return Outcome(path, request_id, due, sent, time.perf_counter(), 0,
                           False, False, f"{type(exc).__name__}: {exc}", None)
        try:
            data = json.loads(raw)
        except ValueError:
            data = {}
        error = None
        if status != 200:
            error = f"status {status}: {data.get('error')}"
        elif echoed != request_id:
            error = f"request id echo {echoed!r} != {request_id!r}"
        elif deprecated is not None:
            error = f"deprecated route answered ({deprecated})"
        elif data.get("api_version") != "v1" or "model_generation" not in data:
            error = "response lacks the /v1 envelope"
        ok = error is None
        return Outcome(
            path, request_id, due, sent, done, status, ok,
            status in (429, 503) and data.get("error") == "shed", error,
            data.get("model_generation") if ok else None,
            data.get("result") if ok else None,
        )


def run_open_loop(
    host: str,
    port: int,
    requests: list[tuple[str, dict]],
    rate: float,
    *,
    connections: int,
    id_prefix: str,
    keep_results_every: int = 0,
    tracer=None,
    stop: threading.Event | None = None,
) -> list[Outcome]:
    """Send ``requests`` on a ``rate``/s schedule over ``connections`` senders.

    Results of every ``keep_results_every``-th request are kept for the
    answer check (0 keeps none).  ``stop`` ends the schedule early; the
    unsent rest is left out of the result.
    """
    stop = stop or threading.Event()
    outcomes: list[Outcome | None] = [None] * len(requests)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def sender() -> None:
        client = Client(host, port)
        try:
            while not stop.is_set():
                with lock:
                    index = cursor[0]
                    if index >= len(requests):
                        return
                    cursor[0] += 1
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                path, body = requests[index]
                request_id = f"{id_prefix}-{index:06d}"
                outcome = client.query(path, body, request_id, due)
                outcome.request = (path, body)
                if tracer is not None:
                    tracer.record("serving.http_query", outcome.sent,
                                  outcome.done, request_id=request_id)
                keep = keep_results_every and index % keep_results_every == 0
                if not keep:
                    outcome.result = None
                outcomes[index] = outcome
        finally:
            client.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=len(requests) / rate + 60)
    return [o for o in outcomes if o is not None]
