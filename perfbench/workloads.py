"""The three workloads: ``fit``, ``fit_parallel`` and ``stream``.

Each ``run_<name>(ctx)`` sets up (several times, reporting the median),
measures, checks the outputs and returns a :class:`Result`.  The seven
end-to-end metrics are defined for every workload; ``latency_s_*`` and
``throughput_per_s`` read as follows:

==============  ================================  ================================
workload        latency (one operation)           throughput
==============  ================================  ================================
fit             wall per Gibbs sweep              tokens resampled per second
fit_parallel    wall per superstep (full sweep)   tokens resampled per second
stream          event-to-servable, per batch      streamed events per second of
                                                  update-cycle wall
==============  ================================  ================================

Timings are in reference-host seconds (see ``hostspeed``).

In a traced run the traced work is matched by the same work untraced:
half-length fits of the same chain before and after the traced one (fit),
untraced fits of the same chain beside a traced one (fit_parallel), or
alternate batches (stream).  The gap is ``bench.trace_overhead_frac``; the
traced part gives the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hostspeed
import loadgen
import stats
from probes import encode_events, kernel_probe, nll_per_token
from spans import Tracer, durations

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    tracer: Tracer


@dataclass
class Result:
    e2e: dict
    layer: dict
    record: dict
    attempted: int
    failed: int
    errors: list = field(default_factory=list)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _units(ctx: Context, per_second: float) -> int:
    """Work units (sweeps, update cycles) for a ``ctx.seconds`` run.

    The count, not a deadline, ends the measurement, so every commit does
    the same work; ``per_second`` is about one unit's cost on a 2-vCPU
    machine.  At least 12 units leave a tail percentile to report.
    """
    return max(12, round(ctx.seconds * per_second))


def _frac(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# -- fit ----------------------------------------------------------------------

#: Measured MEDIUM sweeps per second of ``--seconds``.
FIT_SWEEPS_PER_S = 3.5


def _fit_case(ctx: Context):
    from repro.perf import MEDIUM, SMOKE

    return replace(SMOKE if ctx.smoke else MEDIUM, seed=ctx.seed)


def _serial_fit(ctx: Context, case, corpus, sweeps: int, tracer: Tracer):
    """``api.fit``'s serial path with a sweep callback.

    Returns the model, each sweep's wall and the host calibrations taken
    before the fit and right after each sweep (outside the next sweep's
    wall): sweep ``i`` ran between calibrations ``i`` and ``i + 1``.
    """
    from repro.api import COLDConfig
    from repro.core.model import COLDModel

    config = COLDConfig(
        num_communities=case.num_communities,
        num_topics=case.num_topics,
        seed=ctx.seed,
        num_iterations=sweeps,
    )
    model = COLDModel(config)
    walls, cals = [], [hostspeed.calibrate()]
    mark = [time.perf_counter()]

    def on_sweep(_iteration: int, _model) -> None:
        now = time.perf_counter()
        tracer.record("core.sweep", mark[0], now)
        walls.append(now - mark[0])
        cals.append(hostspeed.calibrate())
        mark[0] = time.perf_counter()

    with tracer.span("core.fit"):
        model.fit(corpus, callback=on_sweep, **config.fit_kwargs())
    return model, walls, cals


def _scaled(walls, cals) -> list[float]:
    """Each wall scaled by the mean of the calibrations around it."""
    return [hostspeed.scale(w, (before + after) / 2)
            for w, before, after in zip(walls, cals, cals[1:])]


def _generate(tracer: Tracer, build):
    """``build()`` timed in reference-host seconds: (value, seconds)."""
    with tracer.span("datasets.generate"):
        value, seconds = _timed(build)
    return value, hostspeed.scale(seconds, hostspeed.calibrate())


def run_fit(ctx: Context) -> Result:
    from repro.perf import peak_rss_mb

    tracer = ctx.tracer
    case = _fit_case(ctx)
    generate = []
    for _ in range(SETUP_REPEATS):
        corpus, seconds = _generate(tracer, case.build_corpus)
        generate.append(seconds)
    sweeps = _units(ctx, 50 if ctx.smoke else FIT_SWEEPS_PER_S)
    layer = {"datasets.generate_s": stats.median(generate)}
    if ctx.trace:
        # Same seed, same chain: every half draws alike.  Untraced halves
        # before and after the traced one cancel first-fit warm-up effects.
        half = max(sweeps // 2, 6)
        quiet = Tracer(enabled=False)
        before = _scaled(*_serial_fit(ctx, case, corpus, half + 1, quiet)[1:])
        model, walls, cals = _serial_fit(ctx, case, corpus, half + 1, tracer)
        after = _scaled(*_serial_fit(ctx, case, corpus, half + 1, quiet)[1:])
        layer["bench.trace_overhead_frac"] = (
            2 * sum(_scaled(walls, cals)) / (sum(before) + sum(after)) - 1
        )
    else:
        model, walls, cals = _serial_fit(ctx, case, corpus, sweeps + 1, tracer)
    scaled = _scaled(walls, cals)
    # The first sweep also initialises the state and builds the sweep
    # cache: its excess over a steady sweep is fit set-up.
    steady = scaled[1:]
    first_extra = scaled[0] - stats.median(steady)
    state, hp = model.state_, model.hyperparameters
    tokens = int(state.posts.lengths.sum())
    nll = nll_per_token(state, hp)
    layer["core.degenerate_draws"] = state.degenerate_draws
    layer["core.sweep_s"] = stats.median(walls[1:])
    layer.update(_probe_layer(kernel_probe(state, hp, ctx.seed + 1)))
    sweep = stats.summary(steady)
    return Result(
        e2e={
            "setup_s": stats.median(generate) + first_extra,
            "latency_s_p50": sweep["p50"],
            "latency_s_tail": sweep["tail"],
            "throughput_per_s": tokens * len(steady) / sum(steady),
            "nll_per_token": nll,
            "peak_rss_mb": peak_rss_mb(),
        },
        layer=layer,
        record={
            "inputs": {
                "case": case.name,
                "num_users": case.num_users,
                "num_posts": corpus.num_posts,
                "num_tokens": tokens,
                "num_links": len(corpus.links),
                "C": case.num_communities,
                "K": case.num_topics,
                "kernel": "fast",
                "sweeps": len(walls),
            },
            "named": {
                "sweep_s_p50": sweep["p50"],
                "sweep_s_tail": sweep["tail"],
                "sweep_s_tail_percentile": sweep["tail_p"],
                "sweep_samples": sweep["n"],
                "first_sweep_extra_s": first_extra,
                "loglik_per_token": -nll,
            },
            "raw": {
                "sweep_s_p50": stats.median(walls[1:]),
                "sweep_s_tail": stats.tail(walls[1:])["value"],
                "calibration_s_p50": stats.median(cals),
            },
            "phases": {"fit": {"sent": len(walls), "succeeded": len(walls),
                               "failed": 0}},
        },
        attempted=len(walls),
        failed=0,
    )


def _probe_layer(probe: dict) -> dict:
    return {k: v for k, v in probe.items() if k.startswith("core.")}


# -- fit_parallel ---------------------------------------------------------------

#: Users of the packed corpus (``repro.perf.packed_scale_config``).
PARALLEL_USERS = 3_000
PARALLEL_SWEEPS_PER_S = 3.6
NODES = WORKERS = 2
#: The parallel fit has no sweep callback, so a run is cut into this many
#: fits of the same chain with a two-CPU host calibration between them.
SEGMENTS = 6


def _parallel_fit(corpus, config_kwargs: dict, sweeps: int,
                  tracer: Tracer):
    from repro import api

    config = api.COLDConfig(num_iterations=sweeps, **config_kwargs)
    with tracer.span("parallel.fit"):
        model = api.fit(corpus, config)
    supersteps = model.cluster_report_.supersteps
    walls = [s.dispatch_wall_seconds + s.merge_seconds for s in supersteps]
    return model, walls


def run_fit_parallel(ctx: Context) -> Result:
    from repro.datasets.packed import PackedCorpus
    from repro.datasets.synthetic import generate_packed_corpus
    from repro.perf import packed_scale_config, peak_rss_mb

    tracer = ctx.tracer
    synth = packed_scale_config(200 if ctx.smoke else PARALLEL_USERS,
                                seed=ctx.seed)
    generate, opens = [], []
    corpus = None
    for repeat in range(SETUP_REPEATS):
        path = ctx.workdir / f"corpus-{repeat}.coldpack"
        written, gen_s = _generate(
            tracer, lambda: generate_packed_corpus(synth, path=path)[0])
        written.close()
        if corpus is not None:
            corpus.close()
        with tracer.span("datasets.packed_open"):
            corpus, open_s = _timed(lambda: PackedCorpus.open(path))
        generate.append(gen_s)
        opens.append(hostspeed.scale(open_s, hostspeed.calibrate()))
    config_kwargs = {
        "num_communities": synth.num_communities,
        "num_topics": synth.num_topics,
        "seed": ctx.seed,
        "executor": "processes",
        "num_nodes": NODES,
        "num_workers": WORKERS,
    }
    # Every segment restarts the same chain; its first superstep also
    # starts the worker pool.  In a traced run one segment is traced.
    per_segment = -(-_units(ctx, 20 if ctx.smoke else PARALLEL_SWEEPS_PER_S)
                    // SEGMENTS)
    quiet = Tracer(enabled=False)
    segments = []
    try:
        with hostspeed.PairCalibrator() as pair:
            cals = [pair.calibrate()]
            for index in range(SEGMENTS):
                traced = not ctx.trace or index == SEGMENTS // 2
                model, walls = _parallel_fit(corpus, config_kwargs,
                                             per_segment + 1,
                                             tracer if traced else quiet)
                cals.append(pair.calibrate())
                calibration = (cals[-2] + cals[-1]) / 2
                segments.append({
                    "model": model,
                    "walls": walls,
                    "scaled": [hostspeed.scale(w, calibration) for w in walls],
                    "traced": traced,
                })
        state, hp = model.state_, model.hyperparameters
        tokens = int(state.posts.lengths.sum())
        nll = nll_per_token(state, hp)
        layer = {
            "datasets.generate_s": stats.median(generate),
            "datasets.packed_open_s": stats.median(opens),
            "core.degenerate_draws": state.degenerate_draws,
        }
        layer.update(_probe_layer(kernel_probe(state, hp, ctx.seed + 1)))
    finally:
        corpus.close()
    steady = [w for seg in segments for w in seg["scaled"][1:]]
    raw_steady = [w for seg in segments for w in seg["walls"][1:]]
    # Worker start-up lands in each first superstep: it is set-up.
    first_extra = stats.median(
        seg["scaled"][0] - stats.median(seg["scaled"][1:]) for seg in segments)
    traced_segments = [seg for seg in segments if seg["traced"]]
    layer.update(_parallel_layer(
        [seg["model"].cluster_report_.supersteps for seg in traced_segments]))
    layer["core.sweep_s"] = stats.median(
        w for seg in traced_segments for w in seg["walls"][1:])
    if ctx.trace:
        quiet_s = [sum(seg["scaled"]) for seg in segments if not seg["traced"]]
        layer["bench.trace_overhead_frac"] = (
            sum(traced_segments[0]["scaled"]) / stats.median(quiet_s) - 1
        )
    retries = sum(seg["model"].cluster_report_.total_retries for seg in segments)
    supersteps = sum(len(seg["walls"]) for seg in segments)
    sweep = stats.summary(steady)
    return Result(
        e2e={
            "setup_s": stats.median(generate) + stats.median(opens) + first_extra,
            "latency_s_p50": sweep["p50"],
            "latency_s_tail": sweep["tail"],
            "throughput_per_s": tokens * len(steady) / sum(steady),
            "nll_per_token": nll,
            "peak_rss_mb": peak_rss_mb(include_children=True),
        },
        layer=layer,
        record={
            "inputs": {
                "config": f"packed_scale_config({synth.num_users})",
                "num_posts": state.num_posts,
                "num_tokens": tokens,
                "num_links": state.num_links,
                "C": synth.num_communities,
                "K": synth.num_topics,
                "executor": "processes",
                "nodes": NODES,
                "workers": WORKERS,
                "mmap": True,
                "segments": SEGMENTS,
                "supersteps": supersteps,
            },
            "named": {
                "sweep_s_p50": sweep["p50"],
                "sweep_s_tail": sweep["tail"],
                "sweep_s_tail_percentile": sweep["tail_p"],
                "sweep_samples": sweep["n"],
                "first_superstep_extra_s": first_extra,
                "loglik_per_token": -nll,
            },
            "raw": {
                "sweep_s_p50": stats.median(raw_steady),
                "sweep_s_tail": stats.tail(raw_steady)["value"],
                "calibration_s_p50": stats.median(cals),
            },
            "phases": {"fit": {"sent": supersteps + retries,
                               "succeeded": supersteps, "failed": retries}},
        },
        attempted=supersteps + retries,
        failed=retries,
    )


def _parallel_layer(fits) -> dict:
    """``repro.parallel`` metrics from the sampler's superstep reports.

    ``fits`` holds one superstep list per fit; each fit's first superstep
    (worker pool start) counts only in ``first_superstep_extra_s``.
    """
    steady = [s for supersteps in fits for s in supersteps[1:]]
    node = [t.compute_seconds for s in steady for t in s.node_timings]
    slowest = [max(t.seconds for t in s.node_timings) for s in steady]
    mean_node = [
        sum(t.seconds for t in s.node_timings) / len(s.node_timings)
        for s in steady
    ]
    dispatch = sum(s.dispatch_wall_seconds for s in steady)
    busy = sum(t.compute_seconds for s in steady for t in s.node_timings)
    wall = [s.dispatch_wall_seconds + s.merge_seconds for s in steady]
    first = [supersteps[0].dispatch_wall_seconds + supersteps[0].merge_seconds
             for supersteps in fits]
    return {
        "parallel.node_s_p50": stats.median(node),
        "parallel.node_s_max": stats.median(slowest),
        "parallel.dispatch_overhead_s": stats.median(
            s.dispatch_wall_seconds - m for s, m in zip(steady, slowest)
        ),
        "parallel.barrier_s": stats.median(s.barrier_seconds for s in steady),
        "parallel.merge_s": stats.median(s.merge_seconds for s in steady),
        "parallel.busy_frac": busy / (len(steady[0].node_timings) * dispatch),
        "parallel.straggler_ratio": stats.median(
            m / a for m, a in zip(slowest, mean_node)
        ),
        "parallel.first_superstep_extra_s": stats.median(first) - stats.median(wall),
        "parallel.retries": sum(s.retries for supersteps in fits for s in supersteps),
    }


# -- the system process (stream) -------------------------------------------------


class System:
    """A ``system.py`` process and its JSON-lines control channel."""

    def __init__(self, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "system.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            self.ready = self.receive()
            if not self.ready.get("ready"):
                raise RuntimeError(
                    f"system process failed to start: {self.ready}")
        except BaseException:
            self.close()
            raise
        self.port = self.ready["port"]

    def send(self, **command) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"system process exited with code {self.proc.returncode}"
            )
        return json.loads(line)

    def stop(self) -> dict:
        try:
            self.send(cmd="stop")
            return self.receive()
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)


def _engine_answer(engine, path: str, body: dict):
    """The in-process answer, shaped like the ``/v1`` adapter's result."""
    family = path.rsplit("/", 1)[1]
    if family == "retweet":
        scores = engine.retweet(body["source"], body["candidates"], body["words"])
        return {"scores": [round(float(s), 9) for s in scores]}
    if family == "link":
        scores = engine.link(np.asarray(body["sources"]),
                             np.asarray(body["targets"]))
        return {"scores": [round(float(s), 9) for s in scores]}
    if family == "timestamp":
        slices, conf = engine.timestamp([body["author"]], [body["words"]])
        return {"slices": [int(s) for s in slices],
                "confidences": [[round(float(p), 6) for p in row] for row in conf]}
    result = engine.influential(body["topic"], size=body["size"],
                                top_users=body["top_users"])
    result.pop("cached")
    return result


def _in_process_engine(model_path: Path):
    """A ``ModelServer`` configured exactly like the HTTP server's engine."""
    from repro.serving import ModelServer, ServerConfig

    config = ServerConfig()
    return ModelServer.from_path(
        model_path,
        top_comm_size=config.top_comm_size,
        cache_size=config.cache_size,
        ic_simulations=config.ic_simulations,
    )


def _check_answers(engine, outcomes) -> list[str]:
    """Sampled HTTP answers must equal the in-process engine's answers."""
    errors = []
    for outcome in outcomes:
        if not outcome.ok or outcome.result is None:
            continue
        result = {k: v for k, v in outcome.result.items() if k != "cached"}
        expected = json.loads(json.dumps(_engine_answer(engine, *outcome.request)))
        if result != expected:
            errors.append(f"{outcome.request_id}: HTTP answer differs from "
                          f"the in-process ModelServer answer")
    return errors


def _engine_layer(model_path: Path, mix: list, topics: int) -> dict:
    """In-process ``ModelServer`` timings on the workload's own query mix."""
    from repro.core.model import COLDModel
    from repro.serving import ModelServer

    estimates = COLDModel.load(model_path).estimates_
    builds = [_timed(lambda: ModelServer(estimates))[1] for _ in range(3)]
    engine = _in_process_engine(model_path)
    misses = []
    for topic in range(min(topics, 5)):
        body = {"topic": topic, "size": 4, "top_users": 10}
        misses.append(_timed(
            lambda: _engine_answer(engine, "/v1/query/influential", body))[1])
    for path, body in mix:  # warm the caches like the served engine
        _engine_answer(engine, path, body)
    per_family: dict[str, list[float]] = {}
    for path, body in mix:
        seconds = _timed(lambda: _engine_answer(engine, path, body))[1]
        per_family.setdefault(path.rsplit("/", 1)[1], []).append(seconds)
    layer = {
        f"serving.engine_us.{family}": 1e6 * stats.median(values)
        for family, values in per_family.items()
    }
    layer["serving.engine_build_s"] = stats.median(builds)
    layer["serving.influence_miss_ms"] = 1e3 * stats.median(misses)
    layer["engine_p50_ms"] = 1e3 * stats.median(
        v for values in per_family.values() for v in values
    )
    return layer


def _cache_layer(engine_stats: dict) -> dict:
    fold, influence = engine_stats["fold_cache"], engine_stats["influence_cache"]
    return {
        "serving.fold_cache_hit_frac": _frac(fold["hits"], fold["misses"]),
        "serving.influence_cache_hit_frac": _frac(influence["hits"],
                                                  influence["misses"]),
    }


def _phase(outcomes) -> dict:
    failed = sum(not o.ok for o in outcomes)
    return {"sent": len(outcomes), "succeeded": len(outcomes) - failed,
            "failed": failed}


def _query_layer(outcomes) -> dict:
    ok = [o.latency for o in outcomes if o.ok]
    q = stats.summary(ok)
    return {
        "serving.query_ms_p50": 1e3 * q["p50"],
        "serving.query_ms_tail": 1e3 * q["tail"],
        "serving.generator_lag_ms": 1e3 * stats.tail(o.lag for o in outcomes)["value"],
        "serving.shed": sum(o.shed for o in outcomes),
    }


#: One request in this many has its answer checked in-process.
CHECK_EVERY = 16


def _mix(ctx: Context, tag: int, count: int, users: int, vocab: int, topics: int):
    rng = np.random.default_rng([ctx.seed, tag])
    return loadgen.query_mix(rng, count, users, vocab, topics)


def _quiet_heap() -> None:
    """Keep the generator's garbage collector off the set-up's objects.

    A full collection walks every object the process holds, corpora and
    models included, and stalls the sender threads for tens of
    milliseconds; frozen objects are skipped.
    """
    gc.collect()
    gc.freeze()


# -- stream --------------------------------------------------------------------------

BOOTSTRAP_FRACTION = 0.6
BOOTSTRAP_SWEEPS = 6
BATCH_EVENTS = 40
#: Update cycles (feed to swap, then the output checks) per second.
STREAM_CYCLES_PER_S = 4.0
STREAM_WINDOW = 192
STREAM_UPDATE_SWEEPS = 2
#: Open-loop query rate beside the writes (requests/s, one connection).
STREAM_QPS = 4


def run_stream(ctx: Context) -> Result:
    from repro.streaming import corpus_to_events, split_events, write_events

    tracer = ctx.tracer
    case = _fit_case(ctx)
    setups, generate = [], []
    system = None
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.span("datasets.generate"):
            corpus, gen_s = _timed(case.build_corpus)
        events = corpus_to_events(corpus)
        head, tail = split_events(events, BOOTSTRAP_FRACTION)
        head_path = ctx.workdir / "head.jsonl"
        write_events(head_path, head)
        with tracer.span("streaming.boot"):
            system = System([
                "--events", str(head_path),
                "--workdir", str(ctx.workdir / f"system-{repeat}"),
                "--communities", str(case.num_communities),
                "--topics", str(case.num_topics),
                "--time-slices", str(case.num_time_slices),
                "--seed", str(ctx.seed),
                "--bootstrap-sweeps", str(BOOTSTRAP_SWEEPS),
                "--window", str(STREAM_WINDOW),
                "--update-sweeps", str(STREAM_UPDATE_SWEEPS),
                *(["--trace"] if ctx.trace else []),
            ])
        setup_s = time.perf_counter() - start
        calibration = hostspeed.calibrate()
        setups.append(hostspeed.scale(setup_s, calibration))
        generate.append(hostspeed.scale(gen_s, calibration))
        if repeat < SETUP_REPEATS - 1:
            system.stop()
    ready = system.ready
    users, vocab, topics = ready["num_users"], ready["vocab_size"], case.num_topics
    host = "127.0.0.1"
    batch_events = 10 if ctx.smoke else BATCH_EVENTS
    stop = threading.Event()
    mix = _mix(ctx, 2, round(STREAM_QPS * (ctx.seconds + 120)), users, vocab,
               topics)
    generator_out: list = []
    generator = threading.Thread(
        target=lambda: generator_out.extend(loadgen.run_open_loop(
            host, system.port, mix, STREAM_QPS, connections=1,
            id_prefix="q", keep_results_every=CHECK_EVERY, stop=stop)),
        daemon=True,
    )
    _quiet_heap()
    probe = loadgen.Client(host, system.port)
    cycles: list[dict] = []
    probes: list = []
    errors: list[str] = []
    try:
        generator.start()
        batches = min(_units(ctx, STREAM_CYCLES_PER_S),
                      -(-len(tail) // batch_events))
        for index in range(batches):
            batch = encode_events(
                tail[index * batch_events:(index + 1) * batch_events])
            # Alternate batches run traced and untraced in a traced run.
            traced = ctx.trace and index % 2 == 1
            system.send(cmd="calibrate")
            before = system.receive()["calibration"]
            created = time.perf_counter()
            with tracer.span("bench.cycle") as cycle_span:
                system.send(cmd="batch", batch=index, events=batch,
                            traced=traced, parent=cycle_span)
                reply = system.receive()
            swapped = time.perf_counter()
            link = {"sources": [0], "targets": [1]}
            outcome = probe.query("/v1/query/link", link, f"probe-{index:04d}",
                                  time.perf_counter())
            outcome.request = ("/v1/query/link", link)
            probes.append(outcome)
            checked = system.receive()
            errors += checked["errors"]
            cycles.append({**reply, "events": len(batch), "created": created,
                           "cycle_s": swapped - created, "traced": traced,
                           "calibration": (before + checked["calibration"]) / 2})
        stop.set()
        generator.join(timeout=60)
        # Post-stream answer check against the last published generation.
        sample = _mix(ctx, 3, 32, users, vocab, topics)
        checks = [probe.query(path, body, f"check-{i:03d}", time.perf_counter())
                  for i, (path, body) in enumerate(sample)]
        for outcome, request in zip(checks, sample):
            outcome.request = request
        # An open keep-alive connection would hold the server's drain.
        probe.close()
        final = system.stop()
    finally:
        probe.close()
        stop.set()
        system.close()
    published = Path(final["published_model"])
    engine = _in_process_engine(published)
    errors += final["errors"]
    errors += _check_answers(engine, checks)
    queries = generator_out + probes + checks
    errors += [f"{o.request_id}: {o.error}" for o in queries if not o.ok][:5]

    # Event-to-servable: the first /v1 answer carrying the batch's generation.
    answered = sorted((o.done, o.generation) for o in queries if o.ok)
    to_servable = []
    for cycle in cycles:
        seen = [done for done, generation in answered
                if generation >= cycle["generation"] and done >= cycle["created"]]
        if not seen:
            errors.append(f"batch {cycle['batch']}: generation "
                          f"{cycle['generation']} never answered a query")
            continue
        to_servable.append((min(seen) - cycle["created"], cycle["calibration"]))
    e2s = stats.summary(hostspeed.scale(*pair) for pair in to_servable)
    streamed = sum(c["events"] for c in cycles)
    for cycle in cycles:
        cycle["scaled_s"] = hostspeed.scale(cycle["cycle_s"], cycle["calibration"])
    cycle_wall = sum(c["scaled_s"] for c in cycles)

    tracer.spans.extend(final["spans"])
    layer = {
        "datasets.generate_s": stats.median(generate),
        "core.update_s": stats.median(c["update_s"] for c in cycles),
        "core.window_posts": stats.median(c["window_posts"] for c in cycles),
        "core.window_links": stats.median(c["window_links"] for c in cycles),
        "core.sweep_s": stats.median(c["update_s"] / STREAM_UPDATE_SWEEPS
                                     for c in cycles),
        "core.degenerate_draws": final["degenerate_draws"],
        "streaming.feed_s": stats.median(c["feed_s"] for c in cycles),
        "streaming.step_overhead_s": stats.median(c["step_s"] - c["update_s"]
                                                  for c in cycles),
        "streaming.failed_reloads": final["failed_reloads"],
    }
    layer.update(_probe_layer(final["final"]))
    layer.update(_query_layer(generator_out))
    layer.update(_cache_layer(final["engine"]))
    if ctx.trace:
        for name in ("core.save", "core.load", "streaming.publish",
                     "streaming.swap", "serving.engine_build"):
            layer[f"{name}_s"] = stats.median(durations(final["spans"], name))
        engine_layer = _engine_layer(published, [o.request for o in generator_out
                                                 if o.ok][:400], topics)
        layer.update({k: v for k, v in engine_layer.items()
                      if k.startswith("serving.") and k != "serving.engine_build_s"})
        layer["serving.http_overhead_ms"] = (layer["serving.query_ms_p50"]
                                             - engine_layer["engine_p50_ms"])
        untraced = [c["scaled_s"] for c in cycles if not c["traced"]]
        traced_cycles = [c["scaled_s"] for c in cycles if c["traced"]]
        layer["bench.trace_overhead_frac"] = (stats.median(traced_cycles)
                                              / stats.median(untraced) - 1)
    failed_queries = sum(not o.ok for o in queries)
    failed_cycles = sum(1 for c in cycles if c["generation"] != c["server_generation"])
    attempted = len(cycles) + final["reloads"] + final["failed_reloads"] + len(queries)
    failed = failed_queries + failed_cycles + final["failed_reloads"]
    q = stats.summary(o.latency for o in generator_out if o.ok)
    return Result(
        e2e={
            "setup_s": stats.median(setups),
            "latency_s_p50": e2s["p50"],
            "latency_s_tail": e2s["tail"],
            "throughput_per_s": streamed / cycle_wall,
            "nll_per_token": final["final"].get("nll_per_token", float("nan")),
            "peak_rss_mb": final["peak_rss_mb"],
        },
        layer=layer,
        record={
            "inputs": {
                "case": case.name,
                "bootstrap_fraction": BOOTSTRAP_FRACTION,
                "bootstrap_events": len(head),
                "tail_events": len(tail),
                "bootstrap_sweeps": BOOTSTRAP_SWEEPS,
                "batch_events": batch_events,
                "window": STREAM_WINDOW,
                "update_sweeps": STREAM_UPDATE_SWEEPS,
                "query_rate_per_s": STREAM_QPS,
                "zipf_s": loadgen.ZIPF_S,
                "families": list(loadgen.FAMILIES),
                "C": case.num_communities,
                "K": case.num_topics,
            },
            "named": {
                "events_per_s": streamed / cycle_wall,
                "event_to_servable_s_p50": e2s["p50"],
                "event_to_servable_s_tail": e2s["tail"],
                "event_to_servable_tail_percentile": e2s["tail_p"],
                "batches": len(cycles),
                "query_ms_p50": 1e3 * q["p50"],
                "query_ms_tail": 1e3 * q["tail"],
                "query_tail_percentile": q["tail_p"],
                "query_samples": q["n"],
                "loglik_per_token": -final["final"].get("nll_per_token", 0.0),
            },
            "raw": {
                "event_to_servable_s_p50": stats.median(t for t, _c in to_servable),
                "event_to_servable_s_tail": stats.tail(
                    t for t, _c in to_servable)["value"],
                "events_per_s": streamed / sum(c["cycle_s"] for c in cycles),
                "calibration_s_p50": stats.median(c["calibration"] for c in cycles),
            },
            "phases": {
                "update_cycles": {"sent": len(cycles),
                                  "succeeded": len(cycles) - failed_cycles,
                                  "failed": failed_cycles},
                "reloads": {"sent": final["reloads"] + final["failed_reloads"],
                            "succeeded": final["reloads"],
                            "failed": final["failed_reloads"]},
                "queries": _phase(generator_out),
                "freshness_probes": _phase(probes),
                "answer_checks": _phase(checks),
            },
        },
        attempted=attempted,
        failed=failed,
        errors=errors,
    )


WORKLOADS = {
    "fit": run_fit,
    "fit_parallel": run_fit_parallel,
    "stream": run_stream,
}
