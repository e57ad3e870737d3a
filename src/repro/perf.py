"""Benchmark harness behind ``cold bench``: one suite registry, one writer.

Each ``cold bench`` suite is one :class:`Suite` in :data:`SUITES` — its
``benchmark`` title, default ``BENCH_*.json`` snapshot, default cases,
``method`` block, per-case run function and one-line summary — and
:func:`write_suite` is the one writer: it stamps the environment, runs
every case, and atomically writes the payload EXPERIMENTS.md documents.

* ``gibbs`` (the default) — :func:`run_case`, reference vs fast kernels;
* ``parallel`` — :func:`run_parallel_case`, scaling over cluster nodes;
* ``diagnostics`` — :func:`run_overhead_case`, quality-streaming cost;
* ``serving`` — :func:`run_serving_case`, QPS and client-side latency;
* ``streaming`` — :func:`run_streaming_case`, updates vs a full refit.

Two disciplines keep every number honest:

* **equivalence first** — each record carries ``draws_match`` from
  :func:`draws_identical`, which replays two seeded runs (reference vs
  fast kernels, an executor vs the sequential ``simulated`` oracle, an
  instrument on vs off, mmap vs in-RAM) and compares their final
  :class:`~repro.core.state.CountState` bitwise; a speedup over a path
  that draws a *different* chain would be meaningless.
* **noise-resistant statistics** — warmed chains and min-of-reps,
  because single-shot sweep timings on a busy machine swing by 30%+.

:func:`run_overhead_case` is the one ABBA overhead loop behind the
instrument gates in ``benchmarks/perf/``: ``telemetry`` (``metrics_out``
+ ``trace_out``, < 3%), ``tracer`` (what ``cold profile`` installs,
< 3%) and ``diagnostics`` (a stride-10 quality stream, < 5%, also the
``diagnostics`` suite).  It reads the *min* per-sweep time for the first
two and the *mean* for diagnostics, whose stride concentrates the cost
on every tenth sweep.

Memory is tracked alongside wall time: every case record carries
``peak_rss_mb`` (:func:`peak_rss_mb`, the ``getrusage`` high-water mark).
Because ``ru_maxrss`` is a monotonic per-process maximum, the large-scale
packed harness (:func:`run_packed_scaling_case`, gated by
``benchmarks/perf/test_packed_scaling.py``) measures each scale point in
a fresh *spawned* subprocess — chunked ``.coldpack`` generation and an
mmap-backed ``processes``-executor fit per corpus size — so the reported
peaks are per-point facts, not whichever earlier case was fattest.
"""

from __future__ import annotations

import inspect
import json
import math
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core.fastgibbs import SweepCache
from .core.gibbs import sweep
from .core.model import COLDModel
from .core.params import Hyperparameters
from .core.state import CountState
from .datasets.corpus import SocialCorpus
from .datasets.synthetic import SyntheticConfig, generate_corpus
from .parallel.sampler import ParallelCOLDSampler
from .resilience.checkpoint import atomic_write_text
from .telemetry.tracing import Tracer, set_tracer

__all__ = [
    "DEFAULT_COMPARE_THRESHOLD",
    "DEFAULT_HISTORY_PATH",
    "INSTRUMENTS",
    "MEDIUM",
    "PACKED_SCALES",
    "SMOKE",
    "SUITES",
    "BenchCase",
    "Suite",
    "append_history",
    "comparable_metrics",
    "compare_benchmarks",
    "comparison_regressed",
    "draws_identical",
    "environment_stamp",
    "instrumented_fit",
    "machine_fingerprint",
    "metric_direction",
    "packed_scale_config",
    "packed_summary",
    "peak_rss_mb",
    "read_history",
    "render_comparison",
    "resolve_baseline",
    "run_case",
    "run_overhead_case",
    "run_packed_scaling_case",
    "run_parallel_case",
    "run_profile_case",
    "run_serving_case",
    "run_streaming_case",
    "write_suite",
]


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process in MB (``getrusage`` high-water).

    ``include_children`` folds in the max over *waited-for* child
    processes (``RUSAGE_CHILDREN``) — the right reading for fits that ran
    a worker pool.  Note the counter is monotonic per process: it reports
    the fattest moment since process start, which is why the packed
    scaling harness isolates each scale point in a fresh subprocess.
    Returns 0.0 on platforms without ``resource`` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(peak / divisor, 1)


@dataclass(frozen=True)
class BenchCase:
    """One benchmark scenario: a synthetic corpus plus model dimensions.

    The planted generator uses half the model's latent dimensions (floored
    at 4), so the chain has real structure to find without being handed
    the answer — occupancy then concentrates the way fitted chains do,
    which is what the fast path's sparse iteration is built for.
    """

    name: str
    num_users: int
    num_communities: int
    num_topics: int
    num_time_slices: int
    vocab_size: int
    mean_posts_per_user: float
    mean_words_per_post: float
    mean_links_per_user: float
    seed: int = 7

    def build_corpus(self) -> SocialCorpus:
        config = SyntheticConfig(
            num_users=self.num_users,
            num_communities=max(4, self.num_communities // 2),
            num_topics=max(4, self.num_topics // 2),
            num_time_slices=self.num_time_slices,
            vocab_size=self.vocab_size,
            mean_posts_per_user=self.mean_posts_per_user,
            mean_words_per_post=self.mean_words_per_post,
            mean_links_per_user=self.mean_links_per_user,
            seed=self.seed,
        )
        corpus, _truth = generate_corpus(config)
        return corpus


#: Lint-gate scale: a few hundred draws, finishes in seconds.
SMOKE = BenchCase(
    name="smoke",
    num_users=40,
    num_communities=4,
    num_topics=6,
    num_time_slices=6,
    vocab_size=300,
    mean_posts_per_user=4.0,
    mean_words_per_post=8.0,
    mean_links_per_user=2.0,
)

#: The headline case BENCH_gibbs.json is about: a medium corpus (600
#: users, ~4.8K posts of ~40 words, ~1.8K links) fitted with C=20, K=40.
MEDIUM = BenchCase(
    name="medium",
    num_users=600,
    num_communities=20,
    num_topics=40,
    num_time_slices=12,
    vocab_size=2000,
    mean_posts_per_user=8.0,
    mean_words_per_post=40.0,
    mean_links_per_user=3.0,
)


def draws_identical(
    run_a: Callable[[], CountState], run_b: Callable[[], CountState]
) -> bool:
    """True iff two seeded runs draw the identical chain.

    Each callable runs one fit and returns its final
    :class:`~repro.core.state.CountState`; the chains match when every
    assignment array and the degenerate-draw tally are equal bitwise.
    """
    a, b = run_a(), run_b()
    return (
        np.array_equal(a.post_comm, b.post_comm)
        and np.array_equal(a.post_topic, b.post_topic)
        and np.array_equal(a.link_src_comm, b.link_src_comm)
        and np.array_equal(a.link_dst_comm, b.link_dst_comm)
        and a.degenerate_draws == b.degenerate_draws
    )


def _kernel_chain(
    corpus: SocialCorpus,
    hp: Hyperparameters,
    case: BenchCase,
    fast: bool,
    num_sweeps: int,
) -> CountState:
    """``num_sweeps`` sweeps of one kernel path from the equivalence seed."""
    rng = np.random.default_rng(case.seed + 1)
    state = CountState.initialize(
        corpus, case.num_communities, case.num_topics, rng
    )
    cache = SweepCache(state, hp) if fast else None
    for _ in range(num_sweeps):
        sweep(state, hp, rng, cache=cache)
    return state


def run_case(
    case: BenchCase,
    warmup: int = 10,
    reps: int = 5,
    sweeps_per_rep: int = 2,
    equivalence_sweeps: int = 3,
) -> dict:
    """Benchmark one case; returns its JSON-ready result record."""
    corpus = case.build_corpus()
    hp = Hyperparameters.default(
        case.num_communities, case.num_topics, corpus
    )
    seconds: dict[str, float] = {}
    occupancy: dict | None = None
    for mode in ("reference", "fast"):
        rng = np.random.default_rng(case.seed)
        state = CountState.initialize(
            corpus, case.num_communities, case.num_topics, rng
        )
        cache = SweepCache(state, hp) if mode == "fast" else None
        for _ in range(warmup):
            sweep(state, hp, rng, cache=cache)
        best = math.inf
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(sweeps_per_rep):
                sweep(state, hp, rng, cache=cache)
            best = min(best, (time.perf_counter() - start) / sweeps_per_rep)
        seconds[mode] = best
        if mode == "fast":
            cs, ks, counts = state.top_comm_topic_cells(10)
            occupancy = {
                "active_cells": int(len(state.active_comm_topic_cells()[0])),
                "total_cells": case.num_communities * case.num_topics,
                "top_cells": [
                    [int(c), int(k), int(n)]
                    for c, k, n in zip(cs, ks, counts)
                ],
            }
    return {
        "name": case.name,
        "config": asdict(case),
        "corpus": {
            "num_posts": corpus.num_posts,
            "num_links": len(corpus.links),
            "mean_post_length": round(
                float(np.mean([len(post) for post in corpus.posts])), 2
            ),
        },
        "reference_seconds_per_sweep": round(seconds["reference"], 5),
        "fast_seconds_per_sweep": round(seconds["fast"], 5),
        "speedup": round(seconds["reference"] / seconds["fast"], 2),
        "draws_match": draws_identical(
            partial(_kernel_chain, corpus, hp, case, False, equivalence_sweeps),
            partial(_kernel_chain, corpus, hp, case, True, equivalence_sweeps),
        ),
        "occupancy": occupancy,
        "peak_rss_mb": peak_rss_mb(),
    }


#: Instruments :func:`run_overhead_case` can meter against a dark fit.
INSTRUMENTS = ("telemetry", "tracer", "diagnostics")


def instrumented_fit(
    corpus: SocialCorpus,
    case: BenchCase,
    instrument: str,
    enabled: bool,
    *,
    seed: int,
    stride: int = 1,
    index=None,
    **fit_kwargs,
) -> COLDModel:
    """Fit ``case``'s model on ``corpus`` with ``instrument`` on or off.

    ``telemetry`` writes ``metrics_out`` and ``trace_out``; ``tracer``
    installs a process-wide :class:`~repro.telemetry.tracing.Tracer`
    (what ``cold profile`` does); ``diagnostics`` writes ``metrics_out``
    in *both* modes, so the delta is a
    :class:`~repro.diagnostics.quality.QualityStream` at ``stride``
    alone (sharing a prebuilt co-occurrence ``index`` when given).
    Telemetry files go to a throwaway directory.  ``fit_kwargs`` are
    passed to :meth:`~repro.core.model.COLDModel.fit`.
    """
    if instrument not in INSTRUMENTS:
        raise ValueError(
            f"unknown instrument {instrument!r}; expected one of {INSTRUMENTS}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        outputs: dict[str, Path] = {}
        if instrument == "telemetry" and enabled:
            outputs["metrics_out"] = Path(tmp) / "metrics.jsonl"
            outputs["trace_out"] = Path(tmp) / "trace.json"
        elif instrument == "diagnostics":
            outputs["metrics_out"] = Path(tmp) / "metrics.jsonl"
            if enabled:
                from .diagnostics.quality import QualityStream

                fit_kwargs["diagnostics"] = QualityStream(
                    corpus, stride=stride, index=index
                )
        model = COLDModel(
            num_communities=case.num_communities,
            num_topics=case.num_topics,
            seed=seed,
            **outputs,
        )
        previous = set_tracer(
            Tracer() if instrument == "tracer" and enabled else None
        )
        try:
            model.fit(corpus, **fit_kwargs)
        finally:
            set_tracer(previous)
    return model


def run_overhead_case(
    case: BenchCase,
    instrument: str,
    sweeps: int = 8,
    reps: int = 6,
    stride: int = 10,
    equivalence_sweeps: int = 3,
) -> dict:
    """Per-sweep cost of ``instrument`` on vs off; JSON-ready record.

    Each rep fits the case dark and instrumented (likelihood monitoring
    off, so the sweeps dominate), alternating which mode goes first
    (ABBA) so slow machine drift hits both equally.  Sweeps are timed
    individually by the fit callback — the delta between consecutive
    callbacks covers the sweep *and* all per-sweep instrument
    bookkeeping — and each fit is reduced to one number: the *min*
    (``telemetry``, ``tracer``: on a noisy host the floor of many short
    samples is far steadier than a whole-fit wall time, which is what
    lets the gate resolve a sub-millisecond overhead) or the *mean*
    (``diagnostics``: the stride concentrates the cost on every
    ``stride``-th sweep, so a min would land on an unmetered one).  The
    statistic per mode is the min of that over reps, and
    ``overhead_fraction`` is ``on/off - 1``.

    For ``diagnostics`` the one-time coherence co-occurrence index is
    built outside the timed fits and shared by them (it would dominate
    at bench-scale sweep counts while vanishing over a real run's
    hundreds of sweeps); its cost is reported as
    ``index_build_seconds``.  ``sweeps`` should then cover at least two
    stride periods so the amortisation is real.

    ``draws_match`` replays ``equivalence_sweeps`` sweeps dark and
    instrumented (a diagnostics stream at stride 1, the worst case):
    instruments never consume RNG, so the chains must be identical.
    """
    corpus = case.build_corpus()
    diagnostics = instrument == "diagnostics"
    index = None
    if diagnostics:
        from .eval.coherence import CooccurrenceIndex

        index_start = time.perf_counter()
        index = CooccurrenceIndex(corpus)
        index_build_seconds = time.perf_counter() - index_start
    best = {"off": math.inf, "on": math.inf}
    for rep in range(reps):
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for mode in order:
            times: list[float] = []
            last: float | None = None

            def clock(_iteration: int, _model: COLDModel) -> None:
                nonlocal last
                now = time.perf_counter()
                if last is not None:
                    times.append(now - last)
                last = now

            instrumented_fit(
                corpus, case, instrument, mode == "on",
                seed=case.seed, stride=stride, index=index,
                num_iterations=sweeps, burn_in=sweeps - 1, sample_interval=1,
                likelihood_interval=0, callback=clock,
            )
            per_sweep = sum(times) / len(times) if diagnostics else min(times)
            best[mode] = min(best[mode], per_sweep)

    def replay(enabled: bool) -> Callable[[], CountState]:
        return lambda: instrumented_fit(
            corpus, case, instrument, enabled, seed=case.seed + 1,
            num_iterations=equivalence_sweeps, likelihood_interval=1,
        ).state_

    return {
        "name": case.name,
        "config": asdict(case),
        "sweeps": sweeps,
        "reps": reps,
        **({"stride": stride} if diagnostics else {}),
        "off_seconds_per_sweep": round(best["off"], 5),
        "on_seconds_per_sweep": round(best["on"], 5),
        "overhead_fraction": round(best["on"] / best["off"] - 1.0, 4),
        **(
            {"index_build_seconds": round(index_build_seconds, 3)}
            if diagnostics
            else {}
        ),
        "draws_match": draws_identical(replay(False), replay(True)),
        "peak_rss_mb": peak_rss_mb(),
    }


def _serving_client_worker(
    host: str,
    port: int,
    requests: list[tuple[str, dict]],
    cursor: list[int],
    cursor_lock,
    samples: list[tuple[str, float, int]],
    samples_lock,
) -> None:
    """One load-generator thread: a persistent connection draining the mix.

    Client-side latency (request sent -> body read) over a keep-alive
    HTTP/1.1 connection, which is how a real serving client measures it:
    connection setup is amortised away and every sample includes JSON
    encode/decode plus the full server pipeline.  Every request carries a
    client-supplied ``X-Request-Id`` and the sample records whether the
    server echoed it back — exercising the correlation-id contract under
    the same load the latency numbers come from.
    """
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=30)
    local: list[tuple[str, float, int, bool]] = []
    try:
        while True:
            with cursor_lock:
                if cursor[0] >= len(requests):
                    break
                index = cursor[0]
                cursor[0] += 1
            path, body = requests[index]
            payload = json.dumps(body)
            request_id = f"perf-{index:06d}"
            start = time.perf_counter()
            try:
                conn.request(
                    "POST", path, body=payload,
                    headers={
                        "Content-Type": "application/json",
                        "X-Request-Id": request_id,
                    },
                )
                response = conn.getresponse()
                response.read()
                status = response.status
                rid_ok = response.getheader("X-Request-Id") == request_id
            except OSError:
                # Reconnect once (keep-alive churn), count as an error.
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                status = 0
                rid_ok = False
            local.append((path, time.perf_counter() - start, status, rid_ok))
    finally:
        conn.close()
        with samples_lock:
            samples.extend(local)


def _scrape_prometheus(host: str, port: int) -> dict:
    """Scrape ``/metrics`` as Prometheus text and validate the exposition.

    Parses the body with the in-repo strict parser, so a malformed
    exposition (bad escaping, torn series, duplicate samples) fails the
    benchmark run instead of shipping silently.
    """
    import http.client

    from .telemetry import parse_prometheus_text

    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metrics", headers={"Accept": "text/plain"})
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        content_type = response.getheader("Content-Type") or ""
    finally:
        conn.close()
    parsed = parse_prometheus_text(body)
    requests_total = sum(
        sample.value for sample in parsed.series("serving_requests_total")
    )
    legacy_total = sum(
        sample.value
        for sample in parsed.series("serving_legacy_requests_total")
    )
    return {
        "valid": True,
        "content_type": content_type,
        "samples": len(parsed.samples),
        "families": len(parsed.types),
        "requests_total": requests_total,
        "legacy_requests_total": legacy_total,
    }


def _serving_request_mix(
    num_requests: int, num_users: int, vocab_size: int
) -> list[tuple[str, dict]]:
    """A deterministic retweet/link/timestamp/influential ``/v1`` request mix."""
    mix: list[tuple[str, dict]] = []
    for index in range(num_requests):
        source = index % num_users
        other = (index + 1) % num_users
        words = [(index * 3 + offset) % vocab_size for offset in range(3)]
        kind = index % 4
        if kind == 0:
            mix.append((
                "/v1/query/retweet",
                {"source": source, "candidates": [other, (index + 2) % num_users],
                 "words": words},
            ))
        elif kind == 1:
            mix.append((
                "/v1/query/link", {"sources": [source], "targets": [other]}
            ))
        elif kind == 2:
            mix.append((
                "/v1/query/timestamp", {"author": source, "words": words}
            ))
        else:
            mix.append(("/v1/query/influential", {"topic": index % 4}))
    return mix


def run_serving_case(
    case: BenchCase,
    fit_iterations: int = 30,
    num_requests: int = 600,
    concurrency: int = 4,
    warmup_requests: int = 60,
    deadline_ms: int = 5000,
) -> dict:
    """Throughput/latency of the serving layer on one case; JSON record.

    Fits a small model on the case's synthetic corpus (fit quality is
    irrelevant to serving cost — tensor shapes are what matter), boots a
    real :class:`~repro.serving.server.ColdHTTPServer` on a loopback
    port, and drives a deterministic retweet/link/timestamp/influential
    mix from ``concurrency`` persistent-connection client threads.
    Reports client-side p50/p99 per endpoint and aggregate QPS; the
    warmup phase populates the fold and influence caches first, exactly
    like a production server that has been up for a minute.
    """
    import threading

    from .serving import ColdHTTPServer, ModelServer, ServerConfig

    corpus = case.build_corpus()
    model = COLDModel(
        num_communities=case.num_communities,
        num_topics=case.num_topics,
        seed=case.seed,
    ).fit(corpus, num_iterations=fit_iterations)
    assert model.estimates_ is not None
    engine = ModelServer(model.estimates_, ic_simulations=50)
    config = ServerConfig(
        port=0,
        deadline_ms=deadline_ms,
        max_inflight=max(concurrency * 2, 8),
        max_waiting=max(concurrency * 4, 16),
    )
    server = ColdHTTPServer(config, engine=engine)
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    num_users = model.estimates_.num_users
    vocab = model.estimates_.vocab_size

    def drive(mix: list[tuple[str, dict]]) -> tuple[list, float]:
        samples: list[tuple[str, float, int]] = []
        cursor = [0]
        cursor_lock = threading.Lock()
        samples_lock = threading.Lock()
        workers = [
            threading.Thread(
                target=_serving_client_worker,
                args=(host, port, mix, cursor, cursor_lock,
                      samples, samples_lock),
                daemon=True,
            )
            for _ in range(concurrency)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300)
        return samples, time.perf_counter() - start

    try:
        drive(_serving_request_mix(warmup_requests, num_users, vocab))
        samples, wall = drive(
            _serving_request_mix(num_requests, num_users, vocab)
        )
        exposition = _scrape_prometheus(host, port)
    finally:
        server.begin_drain()
        thread.join(timeout=30)

    by_endpoint: dict[str, list[float]] = {}
    errors = 0
    rid_mismatches = 0
    for path, seconds, status, rid_ok in samples:
        if status == 200:
            by_endpoint.setdefault(path, []).append(seconds)
        else:
            errors += 1
        if status and not rid_ok:
            rid_mismatches += 1
    endpoints = {}
    for path, latencies in sorted(by_endpoint.items()):
        arr = np.asarray(latencies)
        endpoints[path] = {
            "count": int(arr.size),
            "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
            "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
            "mean_ms": round(float(arr.mean()) * 1e3, 3),
        }
    all_ok = np.asarray(
        [seconds for _, seconds, status, _ in samples if status == 200]
    )
    return {
        "name": case.name,
        "config": asdict(case),
        "model": {
            "num_users": num_users,
            "num_communities": model.estimates_.num_communities,
            "num_topics": model.estimates_.num_topics,
            "vocab_size": vocab,
        },
        "concurrency": concurrency,
        "num_requests": num_requests,
        "completed": int(all_ok.size),
        "errors": errors,
        "qps": round(len(samples) / wall, 1),
        "p50_ms": round(float(np.percentile(all_ok, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(all_ok, 99)) * 1e3, 3),
        "endpoints": endpoints,
        "request_id_mismatches": rid_mismatches,
        "metrics_exposition": exposition,
        "cache": engine.describe()["fold_cache"],
        "peak_rss_mb": peak_rss_mb(),
    }


def _parallel_fit(
    corpus,
    num_communities: int,
    num_topics: int,
    num_nodes: int,
    executor: str,
    num_workers: int | None,
    seed: int,
    sweeps: int,
) -> ParallelCOLDSampler:
    """A fast-kernel parallel fit of ``corpus`` (either container)."""
    return ParallelCOLDSampler(
        num_communities=num_communities,
        num_topics=num_topics,
        num_nodes=num_nodes,
        executor=executor,
        num_workers=num_workers,
        seed=seed,
        fast=True,
    ).fit(corpus, num_iterations=sweeps)


def run_parallel_case(
    case: BenchCase,
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    executor: str = "processes",
    num_workers: int | None = None,
    sweeps: int = 5,
    equivalence_sweeps: int = 2,
) -> dict:
    """Scaling curve of one case across ``node_counts``; JSON-ready record.

    Per node count this fits the parallel sampler for ``sweeps`` sweeps and
    reports the best per-sweep *cluster* time (slowest node + merge, the
    Fig. 13/14 metric) plus its speedup over the 1-node baseline.  For the
    ``processes`` executor each node's seconds are the worker's
    self-reported CPU time for its shard, so the curve measures per-shard
    work even when the host has fewer cores than workers (wall time per
    sweep is recorded alongside for honesty on such hosts).
    ``draws_match`` replays the largest node count through ``executor``
    and through the sequential ``simulated`` oracle.
    """
    if not node_counts:
        raise ValueError("node_counts must not be empty")
    corpus = case.build_corpus()
    scaling = []
    base: float | None = None
    for nodes in node_counts:
        start = time.perf_counter()
        sampler = _parallel_fit(
            corpus, case.num_communities, case.num_topics, nodes, executor,
            num_workers, case.seed, sweeps,
        )
        wall = time.perf_counter() - start
        report = sampler.report_
        assert report is not None
        per_sweep = min(step.cluster_seconds for step in report.supersteps)
        if base is None:
            base = per_sweep
        scaling.append(
            {
                "nodes": nodes,
                "cluster_seconds_per_sweep": round(per_sweep, 5),
                "wall_seconds_per_sweep": round(wall / sweeps, 5),
                "speedup_vs_1_node": round(base / per_sweep, 2),
                "work_over_cluster_time": round(report.speedup, 2),
            }
        )
    match_nodes = max(node_counts)

    def replay(run_executor: str, workers: int | None) -> Callable[[], CountState]:
        return lambda: _parallel_fit(
            corpus, case.num_communities, case.num_topics, match_nodes,
            run_executor, workers, case.seed + 1, equivalence_sweeps,
        ).state_

    return {
        "name": case.name,
        "config": asdict(case),
        "corpus": {
            "num_posts": corpus.num_posts,
            "num_links": len(corpus.links),
        },
        "executor": executor,
        "num_workers": num_workers,
        "sweeps": sweeps,
        "scaling": scaling,
        "draws_match": draws_identical(
            replay("simulated", None), replay(executor, num_workers)
        ),
        "draws_match_nodes": match_nodes,
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }


def run_streaming_case(
    case: BenchCase,
    *,
    num_updates: int = 5,
    bootstrap_fraction: float = 0.6,
    fit_iterations: int = 60,
    update_sweeps: int = 8,
    equivalence_sweeps: int = 24,
) -> dict:
    """Measure incremental updates against a full batch refit for one case.

    The case's corpus is round-tripped to a wall-clock event stream; the
    head ``bootstrap_fraction`` is batch-fitted, the tail is folded in
    ``num_updates`` incremental :meth:`~repro.core.model.COLDModel.update`
    calls (windowed Gibbs).  The comparison baseline is a from-scratch
    refit of the *final accumulated corpus* at the same iteration budget
    — exactly what continuous operation would otherwise have to run per
    batch — and ``speedup`` is refit wall time over mean update wall
    time.  The statistical-equivalence gate
    (:func:`repro.streaming.equivalence.equivalence_report`) rides along
    so a speedup over a *diverged* incremental chain can't pass silently.

    At this scale the posterior is multimodal and independently seeded
    batch refits land in different modes (their pairwise split R-hat is
    huge even though each chain is individually stationary) — so the
    gate cannot demand the strict two-chain criterion against a single
    arbitrary refit.  Instead *two* refits establish a seed-to-seed
    noise floor, and the incremental model passes if it is strictly
    equivalent to its closest refit or no further from the refit
    ensemble than the refits are from each other.  The top-level
    ``equivalent`` field is that verdict; ``equivalence`` holds the
    closest-refit report and ``baseline`` the refit-vs-refit one.
    """
    from .core.config import StreamConfig
    from .datasets.stream import CorpusStreamBuilder, PostEvent
    from .streaming.equivalence import equivalence_report
    from .streaming.events import corpus_to_events, split_events

    corpus = case.build_corpus()
    events = corpus_to_events(corpus)
    bootstrap, remainder = split_events(events, bootstrap_fraction)
    builder = CorpusStreamBuilder(num_time_slices=case.num_time_slices)
    for event in bootstrap:
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)
    boot_corpus = builder.build(incremental=True)

    stream_config = StreamConfig(update_sweeps=update_sweeps)
    model = COLDModel(
        num_communities=case.num_communities,
        num_topics=case.num_topics,
        seed=case.seed,
        stream=stream_config,
    )
    model.stream_builder_ = builder
    start = time.perf_counter()
    model.fit(boot_corpus, num_iterations=fit_iterations)
    bootstrap_seconds = time.perf_counter() - start

    chunk = max(1, math.ceil(len(remainder) / num_updates))
    updates = []
    for index in range(0, len(remainder), chunk):
        report = model.update(remainder[index:index + chunk])
        updates.append(
            {
                "update_index": report.update_index,
                "new_posts": report.new_posts,
                "new_links": report.new_links,
                "new_users": report.new_users,
                "new_terms": report.new_terms,
                "new_slices": report.new_slices,
                "window_posts": report.window_posts,
                "window_links": report.window_links,
                "seconds": report.seconds,
            }
        )
    update_seconds = [record["seconds"] for record in updates]
    mean_update_seconds = float(np.mean(update_seconds))

    final_corpus = model.corpus_
    assert final_corpus is not None
    refits = []
    refit_seconds = None
    for offset in (1, 2):
        refit = COLDModel(
            num_communities=case.num_communities,
            num_topics=case.num_topics,
            seed=case.seed + offset,
            stream=stream_config,
        )
        start = time.perf_counter()
        refit.fit(final_corpus, num_iterations=fit_iterations)
        if refit_seconds is None:
            refit_seconds = time.perf_counter() - start
        refits.append(refit)

    reports = [
        equivalence_report(
            model, refit, sweeps=equivalence_sweeps, seed=17 * (index + 1)
        )
        for index, refit in enumerate(refits)
    ]
    equivalence = min(reports, key=lambda report: report["split_rhat"])
    baseline = equivalence_report(
        refits[1], refits[0], sweeps=equivalence_sweeps, seed=51
    )
    within_noise = (
        equivalence["split_rhat"]
        <= max(equivalence["rhat_threshold"], baseline["split_rhat"])
        and equivalence["relative_loglik_gap"]
        <= max(equivalence["loglik_tolerance"], baseline["relative_loglik_gap"])
    )
    equivalent = bool(equivalence["equivalent"] or within_noise)

    assert model.state_ is not None
    return {
        "name": case.name,
        "num_events": len(events),
        "bootstrap_events": len(bootstrap),
        "streamed_events": len(remainder),
        "bootstrap_fraction": bootstrap_fraction,
        "fit_iterations": fit_iterations,
        "update_sweeps": update_sweeps,
        "bootstrap_seconds": bootstrap_seconds,
        "updates": updates,
        "mean_update_seconds": mean_update_seconds,
        "refit_seconds": refit_seconds,
        "speedup": refit_seconds / mean_update_seconds,
        "final_posts": model.state_.num_posts,
        "final_links": model.state_.num_links,
        "final_vocab": int(model.state_.n_topic_word.shape[1]),
        "final_slices": int(model.state_.n_comm_topic_time.shape[2]),
        "equivalence": equivalence,
        "baseline": baseline,
        "equivalent": equivalent,
        "peak_rss_mb": peak_rss_mb(),
    }


#: Scale points (users) for the out-of-core packed sweep: 1.7x to 167x the
#: MEDIUM corpus by user count (and ~0.1x to ~10x by token count — the
#: packed config plants lighter per-user rates so the top point stays
#: minutes, not hours, on a laptop).
PACKED_SCALES = (1_000, 10_000, 100_000)


def packed_scale_config(num_users: int, seed: int = 7) -> SyntheticConfig:
    """Planted-parameter config for one out-of-core scale point.

    Everything except ``num_users`` is fixed so posts, tokens, and links
    all grow linearly in users — the property the packed sweep is there
    to demonstrate.  Latent dimensions are small (C=8, K=12) because the
    sweep measures data scaling, not model-size scaling.
    """
    return SyntheticConfig(
        num_users=num_users,
        num_communities=8,
        num_topics=12,
        num_time_slices=12,
        vocab_size=2000,
        mean_posts_per_user=4.0,
        mean_words_per_post=8.0,
        mean_links_per_user=2.0,
        seed=seed,
    )


def _packed_generate_probe(conn, config_kwargs: dict, path: str) -> None:
    """Subprocess body: chunk-generate a ``.coldpack`` and self-report.

    Runs in a fresh *spawned* process so the reported ``peak_rss_mb`` is
    the generation's own high-water mark, untainted by whatever the
    parent benchmarked earlier (``ru_maxrss`` is monotonic per process).
    """
    from .datasets.synthetic import generate_packed_corpus

    config = SyntheticConfig(**config_kwargs)
    start = time.perf_counter()
    corpus, _truth = generate_packed_corpus(config, path=path)
    seconds = time.perf_counter() - start
    try:
        conn.send(
            {
                "seconds": seconds,
                "num_posts": corpus.num_posts,
                "num_tokens": corpus.num_words,
                "num_links": corpus.num_links,
                "file_mb": round(os.path.getsize(path) / 2**20, 2),
                "peak_rss_mb": peak_rss_mb(include_children=True),
            }
        )
    finally:
        corpus.close()
        conn.close()


def _packed_train_probe(
    conn,
    path: str,
    num_communities: int,
    num_topics: int,
    num_nodes: int,
    num_workers: int | None,
    sweeps: int,
    seed: int,
) -> None:
    """Subprocess body: mmap-backed ``processes`` fit, self-reported.

    Opens the ``.coldpack`` read-only and fits with the ``processes``
    executor, so workers map the file instead of receiving pickled
    posts; ``peak_rss_mb`` folds the worker children in.
    """
    from .datasets.packed import PackedCorpus

    corpus = PackedCorpus.open(path)
    try:
        start = time.perf_counter()
        sampler = _parallel_fit(
            corpus, num_communities, num_topics, num_nodes, "processes",
            num_workers, seed, sweeps,
        )
        wall = time.perf_counter() - start
        report = sampler.report_
        assert report is not None
        per_sweep = min(step.cluster_seconds for step in report.supersteps)
        conn.send(
            {
                "cluster_seconds_per_sweep": per_sweep,
                "wall_seconds_per_sweep": wall / sweeps,
                "peak_rss_mb": peak_rss_mb(include_children=True),
            }
        )
    finally:
        corpus.close()
        conn.close()


def _run_probe(ctx, target, args: tuple) -> dict:
    """Run a probe function in a fresh process; return what it piped back."""
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(sender, *args))
    proc.start()
    sender.close()
    try:
        result = receiver.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"{target.__name__} subprocess died (exit code {proc.exitcode}) "
            "before reporting a result"
        ) from None
    proc.join()
    receiver.close()
    return result


def run_packed_scaling_case(
    scales: tuple[int, ...] = PACKED_SCALES,
    num_communities: int = 8,
    num_topics: int = 12,
    num_nodes: int = 4,
    num_workers: int | None = 2,
    sweeps: int = 2,
    equivalence_sweeps: int = 2,
    seed: int = 7,
) -> dict:
    """Out-of-core scaling sweep: generate + train per scale, JSON-ready.

    Per scale point, chunked ``.coldpack`` generation and an mmap-backed
    ``processes`` fit each run in their own freshly *spawned* subprocess,
    which self-reports wall time and its ``getrusage`` peak RSS (children
    folded in).  Isolation is what makes the RSS column trustworthy: the
    counter is a monotonic per-process maximum, so measuring three scales
    in one process would report the largest one three times.  Draw
    equivalence (mmap ``processes`` vs in-RAM ``simulated``) is checked
    at the smallest scale, where a double fit is cheap: out-of-core is a
    storage decision, not a statistical one.
    """
    from .datasets.packed import PackedCorpus

    if not scales:
        raise ValueError("scales must not be empty")
    ctx = multiprocessing.get_context("spawn")
    points = []
    draws_ok: bool | None = None
    with tempfile.TemporaryDirectory(prefix="coldpack-bench-") as tmp:
        for num_users in scales:
            config = packed_scale_config(num_users, seed=seed)
            path = os.path.join(tmp, f"scale_{num_users}.coldpack")
            gen = _run_probe(ctx, _packed_generate_probe, (asdict(config), path))
            train = _run_probe(
                ctx,
                _packed_train_probe,
                (
                    path,
                    num_communities,
                    num_topics,
                    num_nodes,
                    num_workers,
                    sweeps,
                    seed,
                ),
            )
            if num_users == min(scales):
                packed = PackedCorpus.open(path)
                try:
                    draws_ok = draws_identical(
                        lambda: _parallel_fit(
                            packed.to_social_corpus(), num_communities,
                            num_topics, num_nodes, "simulated", None, seed,
                            equivalence_sweeps,
                        ).state_,
                        lambda: _parallel_fit(
                            packed, num_communities, num_topics, num_nodes,
                            "processes", num_workers, seed, equivalence_sweeps,
                        ).state_,
                    )
                finally:
                    packed.close()
            points.append(
                {
                    "users": num_users,
                    "posts": gen["num_posts"],
                    "tokens": gen["num_tokens"],
                    "links": gen["num_links"],
                    "file_mb": gen["file_mb"],
                    "generate_seconds": round(gen["seconds"], 2),
                    "generate_peak_rss_mb": gen["peak_rss_mb"],
                    "cluster_seconds_per_sweep": round(
                        train["cluster_seconds_per_sweep"], 5
                    ),
                    "wall_seconds_per_sweep": round(
                        train["wall_seconds_per_sweep"], 5
                    ),
                    "train_peak_rss_mb": train["peak_rss_mb"],
                }
            )
            os.remove(path)
    return {
        "name": "packed_out_of_core",
        "config": {
            "num_communities": num_communities,
            "num_topics": num_topics,
            "generator": asdict(packed_scale_config(0, seed=seed)) | {
                "num_users": "per scale point"
            },
        },
        "executor": "processes",
        "num_nodes": num_nodes,
        "num_workers": num_workers,
        "sweeps": sweeps,
        "draws_match": draws_ok,
        "draws_match_users": min(scales),
        "scaling": points,
    }


# ---------------------------------------------------------------------------
# suite registry — what `cold bench` runs, writes and prints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``cold bench`` suite.

    ``run_case`` measures one :class:`BenchCase` and returns its record;
    ``method`` maps the run's settings (``run_case``'s keywords, defaults
    filled in) to the payload's ``method`` block; ``summary`` renders one
    record as the line(s) ``cold bench`` prints; ``flags`` maps each
    ``run_case`` keyword the CLI sets to the ``cold bench`` option
    (argparse dest) holding it.  ``benchmark`` is the title ledger
    records are matched by, so it must never change.
    """

    benchmark: str
    output: str
    cases: tuple[BenchCase, ...]
    run_case: Callable[..., dict]
    method: Callable[[dict], dict]
    summary: Callable[[dict], str]
    flags: dict[str, str]
    cpu_count: bool = False


def _parallel_summary(record: dict) -> str:
    lines = [
        f"{record['name']:>8} @ {point['nodes']} node(s): "
        f"{point['cluster_seconds_per_sweep']*1e3:.1f}ms cluster "
        f"time per sweep, "
        f"speedup {point['speedup_vs_1_node']:.2f}x"
        for point in record["scaling"]
    ]
    lines.append(
        f"{record['name']:>8}: draws_match={record['draws_match']} "
        f"({record['executor']} vs simulated at "
        f"{record['draws_match_nodes']} nodes), "
        f"peak rss {record['peak_rss_mb']:.0f}MB"
    )
    return "\n".join(lines)


def packed_summary(packed: dict) -> str:
    """The lines ``cold bench --parallel --packed-large`` prints last."""
    lines = [
        f"  packed @ {point['users']:>7} users "
        f"({point['tokens']} tokens, {point['file_mb']:.1f}MB "
        f"file): generate {point['generate_seconds']:.1f}s at "
        f"{point['generate_peak_rss_mb']:.0f}MB peak rss, train "
        f"{point['wall_seconds_per_sweep']:.2f}s/sweep at "
        f"{point['train_peak_rss_mb']:.0f}MB peak rss"
        for point in packed["scaling"]
    ]
    lines.append(
        f"  packed: draws_match={packed['draws_match']} "
        f"(mmap processes vs in-RAM simulated at "
        f"{packed['draws_match_users']} users)"
    )
    return "\n".join(lines)


#: Every ``cold bench`` suite by name; ``gibbs`` runs when no suite flag
#: is given, the others under ``--parallel``/``--diagnostics``/...
SUITES: dict[str, Suite] = {
    "gibbs": Suite(
        benchmark="collapsed Gibbs sweep, reference vs fast kernels",
        output="BENCH_gibbs.json",
        cases=(SMOKE, MEDIUM),
        run_case=run_case,
        method=lambda s: {
            "warmup_sweeps": s["warmup"],
            "reps": s["reps"],
            "sweeps_per_rep": s["sweeps_per_rep"],
            "statistic": "min over reps of mean seconds per sweep",
        },
        summary=lambda r: (
            f"{r['name']:>8}: {r['reference_seconds_per_sweep']*1e3:.1f}ms"
            f" -> {r['fast_seconds_per_sweep']*1e3:.1f}ms per sweep, "
            f"speedup {r['speedup']:.2f}x, "
            f"draws_match={r['draws_match']}, "
            f"peak rss {r['peak_rss_mb']:.0f}MB"
        ),
        flags={
            "warmup": "warmup", "reps": "reps",
            "sweeps_per_rep": "sweeps_per_rep",
        },
    ),
    "parallel": Suite(
        benchmark="parallel COLD sampling, scaling over cluster nodes",
        output="BENCH_parallel.json",
        cases=(MEDIUM,),
        run_case=run_parallel_case,
        method=lambda s: {
            "sweeps": s["sweeps"],
            "equivalence_sweeps": s["equivalence_sweeps"],
            "statistic": "min over supersteps of cluster seconds per sweep",
            "node_seconds": (
                "worker-reported CPU seconds per shard for the 'processes' "
                "executor; engine wall clock otherwise"
            ),
        },
        summary=_parallel_summary,
        flags={
            "node_counts": "nodes", "executor": "executor",
            "num_workers": "workers", "sweeps": "sweeps",
            "equivalence_sweeps": "equivalence_sweeps",
        },
        cpu_count=True,
    ),
    "diagnostics": Suite(
        benchmark="quality-streaming diagnostics overhead per Gibbs sweep",
        output="BENCH_diagnostics.json",
        cases=(MEDIUM,),
        run_case=partial(
            run_overhead_case, instrument="diagnostics", sweeps=20, reps=4
        ),
        method=lambda s: {
            "sweeps": s["sweeps"],
            "reps": s["reps"],
            "stride": s["stride"],
            "statistic": (
                "min over ABBA reps of mean seconds per sweep "
                "(mean, not min: stride-gated cost is non-uniform); "
                "one-time co-occurrence index build excluded, "
                "reported as index_build_seconds"
            ),
            "baseline": "telemetry-enabled fit without a QualityStream",
        },
        summary=lambda r: (
            f"{r['name']:>8}: "
            f"{r['off_seconds_per_sweep']*1e3:.1f}ms plain -> "
            f"{r['on_seconds_per_sweep']*1e3:.1f}ms streaming "
            f"at stride {r['stride']}, "
            f"overhead {r['overhead_fraction']:+.1%}, "
            f"draws_match={r['draws_match']}, "
            f"peak rss {r['peak_rss_mb']:.0f}MB"
        ),
        flags={
            "sweeps": "sweeps", "reps": "reps", "stride": "stride",
            "equivalence_sweeps": "equivalence_sweeps",
        },
    ),
    "serving": Suite(
        benchmark="prediction serving layer, QPS and client-side latency",
        output="BENCH_serving.json",
        cases=(SMOKE, MEDIUM),
        run_case=run_serving_case,
        method=lambda s: {
            "num_requests": s["num_requests"],
            "concurrency": s["concurrency"],
            "clients": "persistent HTTP/1.1 connections, client-side timing",
            "mix": "retweet/link/timestamp/influential round-robin",
            "warmup": "caches populated by a warmup phase before timing",
        },
        summary=lambda r: (
            f"{r['name']:>8}: {r['qps']:.0f} qps, "
            f"p50 {r['p50_ms']:.2f}ms, p99 {r['p99_ms']:.2f}ms, "
            f"{r['completed']}/{r['num_requests']} ok, "
            f"{r['errors']} errors, "
            f"peak rss {r['peak_rss_mb']:.0f}MB"
        ),
        flags={"num_requests": "requests", "concurrency": "concurrency"},
        cpu_count=True,
    ),
    "streaming": Suite(
        benchmark="incremental stream updates vs full batch refit",
        output="BENCH_streaming.json",
        cases=(MEDIUM,),
        run_case=run_streaming_case,
        method=lambda s: {
            "num_updates": s["num_updates"],
            "bootstrap_fraction": s["bootstrap_fraction"],
            "fit_iterations": s["fit_iterations"],
            "update_sweeps": s["update_sweeps"],
            "equivalence_sweeps": s["equivalence_sweeps"],
            "statistic": "refit wall seconds over mean update wall seconds",
            "equivalence": (
                "strict split R-hat + loglik gap vs the closest of two "
                "independent refits, or within the refit-vs-refit seed "
                "noise floor (the posterior is multimodal at this scale)"
            ),
        },
        summary=lambda r: (
            f"{r['name']:>8}: "
            f"{r['mean_update_seconds']*1e3:.1f}ms per update vs "
            f"{r['refit_seconds']*1e3:.1f}ms full refit, "
            f"speedup {r['speedup']:.1f}x, "
            f"equivalent={r['equivalent']}, "
            f"peak rss {r['peak_rss_mb']:.0f}MB"
        ),
        flags={
            "num_updates": "updates",
            "bootstrap_fraction": "bootstrap_fraction",
        },
    ),
}


def write_suite(
    name: str,
    path: str | Path,
    cases: tuple[BenchCase, ...] | None = None,
    *,
    packed_scales: tuple[int, ...] = (),
    **settings,
) -> dict:
    """Run suite ``name`` and atomically write its payload to ``path``.

    ``settings`` are keywords of the suite's ``run_case``; the ones left
    out take its defaults, and the resolved values fill the ``method``
    block.  ``cases`` defaults to the suite's.  ``packed_scales`` (parallel
    suite only, e.g. :data:`PACKED_SCALES`) adds the out-of-core sweep —
    :func:`run_packed_scaling_case` — under ``packed_scaling``; this is
    ``cold bench --parallel --packed-large`` and takes minutes at the
    10^5-user point.  Returns the payload.
    """
    suite = SUITES[name]
    if packed_scales and name != "parallel":
        raise ValueError("packed_scales belongs to the parallel suite")
    bound = inspect.signature(suite.run_case).bind_partial(**settings)
    bound.apply_defaults()
    resolved = bound.arguments
    payload = {
        "benchmark": suite.benchmark,
        "harness": "repro.perf",
        **environment_stamp(),
        **({"cpu_count": os.cpu_count()} if suite.cpu_count else {}),
        "method": suite.method(resolved),
        "cases": [
            suite.run_case(case, **settings)
            for case in (suite.cases if cases is None else cases)
        ],
    }
    if packed_scales:
        payload["method"]["packed_scaling"] = (
            "per scale point, chunked .coldpack generation and an "
            "mmap-backed 'processes' fit each run in a fresh spawned "
            "subprocess that self-reports wall time and getrusage peak "
            "RSS (children folded in), so every peak is a per-point fact"
        )
        workers = resolved["num_workers"]
        payload["packed_scaling"] = run_packed_scaling_case(
            scales=packed_scales,
            num_workers=workers if workers is not None else 2,
            equivalence_sweeps=resolved["equivalence_sweeps"],
        )
    atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# environment stamping — who produced a benchmark number
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    """Human-readable CPU model, best-effort (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    model = platform.processor() or platform.machine()
    return model or None


def machine_fingerprint() -> dict:
    """The hardware/runtime identity a benchmark number depends on.

    Two ledger entries are comparable only when their fingerprints match;
    ``cold bench --compare`` prints a warning, not a verdict, across
    differing machines.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def environment_stamp() -> dict:
    """The block every ``BENCH_*.json`` payload and ledger entry carries.

    Keeps the historical top-level ``python``/``numpy`` keys (older
    committed snapshots have only those) and adds ``git_describe`` plus
    the full :func:`machine_fingerprint`.
    """
    from .telemetry.manifest import git_describe

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_describe": git_describe(),
        "machine": machine_fingerprint(),
    }


# ---------------------------------------------------------------------------
# benchmark regression ledger + snapshot comparison
# ---------------------------------------------------------------------------

#: Where ``cold bench`` appends one record per run (repo-relative).
DEFAULT_HISTORY_PATH = Path("benchmarks") / "history.jsonl"

#: Relative change beyond which a metric is a regression/improvement.
DEFAULT_COMPARE_THRESHOLD = 0.10

_HIGHER_BETTER_PATTERNS = ("speedup", "qps", "per_second", "throughput")
_LOWER_BETTER_PATTERNS = ("seconds", "latency", "_ms", "rss", "overhead")


def metric_direction(name: str) -> str | None:
    """``"higher"``/``"lower"``-is-better classification of a metric key.

    Returns ``None`` for keys that are not performance metrics (config
    sizes, counts, booleans), which :func:`comparable_metrics` skips.
    Higher-better patterns win ties (``events_per_second`` contains both
    ``per_second`` and ``seconds``).
    """
    key = name.rsplit(".", 1)[-1].lower()
    if any(pattern in key for pattern in _HIGHER_BETTER_PATTERNS):
        return "higher"
    if any(pattern in key for pattern in _LOWER_BETTER_PATTERNS):
        return "lower"
    return None


def _walk_metrics(node: object, prefix: str, out: dict[str, float]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                _walk_metrics(value, f"{prefix}{key}.", out)
            elif (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and metric_direction(key)
            ):
                out[f"{prefix}{key}"] = float(value)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            label: object = index
            if isinstance(item, dict):
                for id_key in ("name", "nodes", "users", "scale"):
                    value = item.get(id_key)
                    if isinstance(value, (str, int)):
                        label = value
                        break
            _walk_metrics(item, f"{prefix}{label}.", out)


def comparable_metrics(payload: dict) -> dict[str, float]:
    """Flatten a benchmark payload into ``{dotted.metric: value}``.

    Walks the ``cases``/``scaling`` structures, labelling list entries by
    their ``name``/``nodes``/``users`` field, and keeps only keys
    :func:`metric_direction` can classify — so config dimensions and
    equivalence booleans never produce spurious verdicts.
    """
    out: dict[str, float] = {}
    cases = payload.get("cases", payload.get("scaling"))
    _walk_metrics(cases if cases is not None else payload, "", out)
    return out


def _metrics_of(obj: dict) -> dict[str, float]:
    """Metrics of either a full payload or a ledger record."""
    metrics = obj.get("metrics")
    if isinstance(metrics, dict) and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in metrics.values()
    ):
        return {key: float(value) for key, value in metrics.items()}
    return comparable_metrics(obj)


def append_history(
    payload: dict, path: str | Path = DEFAULT_HISTORY_PATH
) -> dict:
    """Append one run's record to the benchmark regression ledger.

    The ledger is append-only JSONL via the telemetry plane's
    :class:`~repro.telemetry.metrics.JsonlWriter` — per-record flush,
    fresh-line salvage after a torn write — so killed runs never corrupt
    the history and readers tolerate a truncated tail.
    """
    from .telemetry.metrics import JsonlWriter

    record = {
        "benchmark": payload.get("benchmark"),
        "git_describe": payload.get("git_describe"),
        "machine": payload.get("machine"),
        "metrics": _metrics_of(payload),
    }
    with JsonlWriter(path) as writer:
        return writer.write("bench", **record)


def read_history(
    path: str | Path = DEFAULT_HISTORY_PATH, benchmark: str | None = None
) -> list[dict]:
    """Complete ledger records (torn tail skipped), optionally filtered."""
    from .telemetry.metrics import read_jsonl

    records = [
        record
        for record in read_jsonl(path)
        if record.get("kind") == "bench"
    ]
    if benchmark is not None:
        records = [r for r in records if r.get("benchmark") == benchmark]
    return records


def compare_benchmarks(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_COMPARE_THRESHOLD,
) -> list[dict]:
    """Per-metric verdicts of ``current`` against ``baseline``.

    Both sides may be full benchmark payloads or ledger records.  Only
    metrics present on both sides are judged; a verdict is ``regressed``
    when the metric moved more than ``threshold`` in its bad direction,
    ``improved`` beyond the threshold the other way, else ``ok``.
    """
    cur = _metrics_of(current)
    base = _metrics_of(baseline)
    verdicts = []
    for name in sorted(set(cur) & set(base)):
        direction = metric_direction(name)
        if direction is None or base[name] <= 0:
            continue
        ratio = cur[name] / base[name]
        if direction == "lower":
            worse, better = ratio > 1.0 + threshold, ratio < 1.0 - threshold
        else:
            worse, better = ratio < 1.0 - threshold, ratio > 1.0 + threshold
        verdicts.append(
            {
                "metric": name,
                "current": cur[name],
                "baseline": base[name],
                "ratio": round(ratio, 4),
                "direction": direction,
                "verdict": (
                    "regressed" if worse else "improved" if better else "ok"
                ),
            }
        )
    return verdicts


def comparison_regressed(verdicts: list[dict]) -> bool:
    """True when any metric regressed — the ``--strict`` exit condition."""
    return any(row["verdict"] == "regressed" for row in verdicts)


def render_comparison(verdicts: list[dict]) -> str:
    """The per-metric verdict table ``cold bench --compare`` prints."""
    if not verdicts:
        return "no overlapping metrics to compare"
    width = max(len(row["metric"]) for row in verdicts)
    lines = [
        f"{'metric':<{width}}  {'current':>12}  {'baseline':>12}  "
        f"{'ratio':>7}  verdict"
    ]
    for row in verdicts:
        lines.append(
            f"{row['metric']:<{width}}  {row['current']:>12.5g}  "
            f"{row['baseline']:>12.5g}  {row['ratio']:>7.3f}  {row['verdict']}"
        )
    counts = {"ok": 0, "improved": 0, "regressed": 0}
    for row in verdicts:
        counts[row["verdict"]] += 1
    lines.append(
        f"{counts['ok']} ok, {counts['improved']} improved, "
        f"{counts['regressed']} regressed"
    )
    return "\n".join(lines)


def resolve_baseline(
    spec: str | None,
    snapshot_path: str | Path,
    benchmark: str | None = None,
) -> dict | None:
    """Find the baseline a run should be compared against.

    ``spec`` may be a file path (a BENCH snapshot, or a ``.jsonl`` ledger
    whose last matching record wins), a git ref (the committed snapshot
    at that ref is read via ``git show``), or ``None`` to use whatever is
    at ``snapshot_path`` right now — which is why the CLI loads the
    baseline *before* overwriting the snapshot.  Returns ``None`` when no
    baseline can be found.
    """
    snapshot_path = Path(snapshot_path)
    if spec is not None:
        candidate = Path(spec)
        if candidate.exists():
            if candidate.suffix == ".jsonl":
                records = read_history(candidate, benchmark=benchmark)
                return records[-1] if records else None
            try:
                return json.loads(candidate.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                return None
        return _git_show_json(spec, snapshot_path)
    if snapshot_path.exists():
        try:
            return json.loads(snapshot_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
    return None


def _git_show_json(ref: str, path: Path) -> dict | None:
    """``git show ref:path`` parsed as JSON; ``None`` on any failure."""
    import subprocess

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=True,
        ).stdout.strip()
        relative = os.path.relpath(path.resolve(), top)
        shown = subprocess.run(
            ["git", "show", f"{ref}:{relative}"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=True,
        ).stdout
        return json.loads(shown)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# phase profiling harness — `cold profile`
# ---------------------------------------------------------------------------


def run_profile_case(
    case: BenchCase,
    sweeps: int = 5,
    warmup: int = 2,
    executor: str = "serial",
    nodes: int = 2,
    num_workers: int | None = None,
) -> dict:
    """Run ``sweeps`` traced sweeps and build the attribution report.

    ``executor="serial"`` profiles the fast serial kernels directly
    (``warmup`` dark sweeps first, so the report measures warmed sweeps);
    any :class:`~repro.parallel.sampler.ParallelCOLDSampler` executor
    profiles a parallel fit, with worker shard spans shipped home over
    the reply pipe and the per-sweep wall read back from a throwaway
    metrics file (which also exercises the utilization gauges).  The
    returned record embeds the report, the collapsed-stack text, and the
    utilization/memory summary — everything ``cold profile`` renders.
    """
    from .telemetry import profiler as profiling
    from .telemetry.metrics import read_jsonl
    from .telemetry.profiler import memory_gauges

    corpus = case.build_corpus()
    tracer = Tracer()
    utilization = None
    if executor == "serial":
        hp = Hyperparameters.default(
            case.num_communities, case.num_topics, corpus
        )
        rng = np.random.default_rng(case.seed)
        state = CountState.initialize(
            corpus, case.num_communities, case.num_topics, rng
        )
        cache = SweepCache(state, hp)
        for _ in range(warmup):
            sweep(state, hp, rng, cache=cache)
        previous = set_tracer(tracer)
        total_wall = 0.0
        try:
            for _ in range(sweeps):
                start = time.perf_counter()
                sweep(state, hp, rng, cache=cache)
                total_wall += time.perf_counter() - start
        finally:
            set_tracer(previous)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            metrics_path = Path(tmp) / "metrics.jsonl"
            previous = set_tracer(tracer)
            try:
                ParallelCOLDSampler(
                    num_communities=case.num_communities,
                    num_topics=case.num_topics,
                    num_nodes=nodes,
                    executor=executor,
                    num_workers=num_workers,
                    seed=case.seed,
                    metrics_out=metrics_path,
                ).fit(corpus, num_iterations=sweeps)
            finally:
                set_tracer(previous)
            records = [
                r for r in read_jsonl(metrics_path) if r.get("kind") == "sweep"
            ]
        total_wall = sum(r["wall_seconds"] for r in records)
        if records:
            utilization = {
                "busy_fraction": round(
                    sum(r["busy_fraction"] for r in records) / len(records), 4
                ),
                "straggler_ratio": round(
                    sum(r["straggler_ratio"] for r in records) / len(records),
                    4,
                ),
            }
    report = profiling.build_profile_report(tracer, total_wall, sweeps)
    return {
        "name": case.name,
        "config": asdict(case),
        "executor": executor,
        "nodes": 1 if executor == "serial" else nodes,
        "sweeps": sweeps,
        **report,
        "utilization": utilization,
        "memory": memory_gauges(include_children=executor == "processes"),
        "collapsed": profiling.render_collapsed(tracer),
        **environment_stamp(),
    }
