"""The system under test for the ``stream`` workload.

Runs in a process of its own so the load generator never shares an
interpreter with the server.  It speaks JSON lines: one message per line
on stdin (commands) and on the original stdout (replies); everything else
the process prints goes to stderr.

It mirrors ``cold stream --serve``: it bootstrap-fits the events it is
given, publishes generation 1, serves it, and subscribes a
``ModelWatcher`` to every publish.  Each ``batch`` command is one closed
update cycle: ``OnlineTrainer.feed`` + ``step`` (update, save, publish,
hot-swap).  The reply goes out the moment the swap is done; the output
checks of that update run after it and report separately.

Usage (the benchmark starts it; see ``workloads.py``)::

    python3 perfbench/system.py --events FILE --workdir DIR ... [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from probes import (  # noqa: E402
    decode_events,
    kernel_probe,
    nll_per_token,
    use_checkout_source,
)
from spans import Tracer  # noqa: E402


def _replier():
    """Protocol writer on the original stdout; stdout itself goes to stderr."""
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr

    def reply(**message) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    return reply


def _start_server(config_kwargs: dict, model_path: Path):
    from repro.serving import ColdHTTPServer, ServerConfig

    server = ColdHTTPServer(ServerConfig(port=0, **config_kwargs),
                            model_path=model_path)
    thread = threading.Thread(target=server.serve_until_shutdown,
                              name="bench-serve", daemon=True)
    thread.start()
    return server, thread


def _stop_server(server, thread) -> None:
    server.begin_drain()
    thread.join(timeout=30)


def _serving_stats(server) -> dict:
    return server.engine.describe()


def _instrument(tracer: Tracer, model, trainer, server) -> None:
    """Spans around the layer calls a stream update cycle makes."""
    from repro.core.model import COLDModel
    from repro.serving import ModelServer

    tracer.wrap(model, "update", "core.update")
    tracer.wrap(model, "save", "core.save")
    tracer.wrap(trainer, "publish", "streaming.publish")
    tracer.wrap(server, "reload", "serving.reload")
    tracer.wrap(COLDModel, "load", "core.load")
    tracer.wrap(ModelServer, "__init__", "serving.engine_build")
    tracer.wrap(ModelServer, "self_check", "serving.self_check")


def run_stream(args, reply) -> None:
    from repro.core.config import StreamConfig
    from repro.core.model import COLDModel
    from repro.datasets.stream import CorpusStreamBuilder, PostEvent
    from repro.perf import peak_rss_mb
    from repro.streaming import ModelWatcher, OnlineTrainer, read_events

    start = time.perf_counter()
    workdir = Path(args.workdir)
    builder = CorpusStreamBuilder(num_time_slices=args.time_slices)
    for event in read_events(args.events):
        if isinstance(event, PostEvent):
            builder.add_post(event.author_key, event.tokens, event.time)
        else:
            builder.add_link(event.source_key, event.target_key, event.time)
    corpus = builder.build(incremental=True)
    model = COLDModel(
        num_communities=args.communities,
        num_topics=args.topics,
        seed=args.seed,
        stream=StreamConfig(
            window_posts=args.window,
            window_links=args.window,
            update_sweeps=args.update_sweeps,
            sample_last=min(2, args.update_sweeps),
        ),
    )
    model.fit(corpus, num_iterations=args.bootstrap_sweeps)
    publish_dir = workdir / "publish"
    trainer = OnlineTrainer(model, builder, publish_dir=publish_dir)
    trainer.publish()
    server, thread = _start_server(
        {}, publish_dir / f"model-{trainer.generation:06d}"
    )
    watcher = ModelWatcher(server, publish_dir)
    watcher.seen_generation = trainer.generation
    tracer = Tracer(enabled=args.trace, prefix="sys-")

    def hot_swap(generation: int, path: Path) -> None:
        with tracer.span("streaming.swap"):
            watcher.poke()

    trainer.subscribe(hot_swap)
    _instrument(tracer, model, trainer, server)
    reply(
        ready=True,
        port=server.server_address[1],
        boot_s=time.perf_counter() - start,
        num_users=model.estimates_.num_users,
        vocab_size=model.estimates_.vocab_size,
        generation=trainer.generation,
    )

    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "batch":
            events = decode_events(command["events"])
            tracer.enabled = args.trace and command["traced"]
            parent = command.get("parent")
            t0 = time.perf_counter()
            with tracer.span("streaming.feed", parent=parent):
                trainer.feed(events)
            t1 = time.perf_counter()
            with tracer.span("streaming.step", parent=parent):
                report = trainer.step()
            t2 = time.perf_counter()
            if report is None:
                raise RuntimeError(f"batch {command['batch']} produced no update")
            reply(
                batch=command["batch"],
                generation=trainer.generation,
                server_generation=server.generation,
                feed_s=t1 - t0,
                step_s=t2 - t1,
                update_s=report.seconds,
                window_posts=report.window_posts,
                window_links=report.window_links,
                new_users=report.new_users,
                new_terms=report.new_terms,
            )
            errors = []
            if server.generation != trainer.generation:
                errors.append(
                    f"published generation {trainer.generation} did not reach "
                    f"the server (serving {server.generation})"
                )
            try:
                model.state_.check_invariants()
            except ValueError as exc:
                errors.append(f"count state invalid after update: {exc}")
            # The host speed where the update ran, for reference-host seconds.
            reply(batch=command["batch"], checked=not errors, errors=errors,
                  calibration=hostspeed.calibrate())
        elif command["cmd"] == "calibrate":
            reply(calibration=hostspeed.calibrate())
        elif command["cmd"] == "stop":
            stats = _serving_stats(server)
            tracer.unwrap()
            _stop_server(server, thread)
            final = {}
            errors = []
            try:
                final["nll_per_token"] = nll_per_token(model.state_,
                                                       model.hyperparameters)
                final.update(kernel_probe(model.state_, model.hyperparameters,
                                          args.seed + 1))
            except ValueError as exc:
                errors.append(f"final state check failed: {exc}")
            reply(
                stopped=True,
                engine=stats,
                final=final,
                errors=errors,
                degenerate_draws=model.state_.degenerate_draws,
                failed_reloads=watcher.failed_reloads,
                reloads=watcher.reloads,
                published_model=str(
                    publish_dir / f"model-{trainer.generation:06d}"
                ),
                peak_rss_mb=peak_rss_mb(),
                spans=tracer.spans,
            )
            return
    _stop_server(server, thread)


def main() -> None:
    reply = _replier()
    use_checkout_source()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--communities", type=int, required=True)
    parser.add_argument("--topics", type=int, required=True)
    parser.add_argument("--time-slices", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--bootstrap-sweeps", type=int, required=True)
    parser.add_argument("--window", type=int, required=True)
    parser.add_argument("--update-sweeps", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    run_stream(parser.parse_args(), reply)


if __name__ == "__main__":
    main()
