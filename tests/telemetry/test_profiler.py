"""Unit tests for the training-plane performance observatory.

Covers :func:`~repro.telemetry.profiler.span_rows` (parent-link nesting,
foreign-process and other-thread roots, per-item counts), the
attribution report and its collapsed-stack rendering, the
bit-identical-draws contract of traced sweeps, and the
synthetic-slowdown detection path
(:func:`~repro.telemetry.profiler.compare_profiles`).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.fastgibbs import SweepCache
from repro.core.gibbs import sweep
from repro.core.params import Hyperparameters
from repro.core.state import CountState
from repro.datasets.synthetic import SyntheticConfig, generate_corpus
from repro.telemetry import tracing
from repro.telemetry.profiler import (
    build_profile_report,
    compare_profiles,
    escape_phase,
    memory_gauges,
    parse_collapsed,
    render_collapsed,
    render_profile_report,
    span_rows,
    unescape_phase,
    worker_utilization,
)
from repro.telemetry.tracing import Tracer

#: A pid no live process of this test run has (pids are positive).
OTHER_PID = -1


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing off."""
    previous = tracing.set_tracer(None)
    yield
    tracing.set_tracer(previous)


def span_event(
    span_id: int,
    name: str,
    seconds: float,
    parent: int | None = None,
    count: int | None = None,
    pid: int | None = None,
) -> dict:
    """One Chrome 'X' event in the shape :class:`Tracer` records."""
    args: dict = {"id": span_id, "parent": parent}
    if count is not None:
        args["count"] = count
    return {
        "name": name,
        "cat": "repro",
        "ph": "X",
        "ts": 0.0,
        "dur": seconds * 1e6,
        "pid": os.getpid() if pid is None else pid,
        "tid": threading.get_ident(),
        "args": args,
    }


def tracer_of(*events: dict) -> Tracer:
    tracer = Tracer()
    tracer.extend(list(events))
    return tracer


def small_corpus(seed: int = 7):
    corpus, _truth = generate_corpus(
        SyntheticConfig(
            num_users=30,
            num_communities=3,
            num_topics=4,
            vocab_size=60,
            num_time_slices=6,
            seed=seed,
        )
    )
    return corpus


class TestSpanRows:
    def test_counts_and_seconds_aggregate_by_path(self):
        rows = span_rows(
            [
                span_event(1, "a", 1.0),
                span_event(2, "b", 0.25, parent=1, count=5),
                span_event(3, "b", 0.25, parent=1, count=5),
            ]
        )
        assert rows == [(("a",), 1, 1.0), (("a", "b"), 10, 0.5)]

    def test_parent_links_build_paths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        rows = span_rows(tracer.events)
        assert [(path, count) for path, count, _s in rows] == [
            (("outer",), 1),
            (("outer", "inner"), 2),
        ]

    def test_parent_links_keyed_by_pid(self):
        # Every process numbers its spans from 1: a worker's child of its
        # span 1 must not attach to the parent process's span 1.
        rows = span_rows(
            [
                span_event(1, "superstep", 1.0),
                span_event(1, "worker_shard", 0.9, pid=OTHER_PID),
                span_event(2, "fast_sweep", 0.8, parent=1, pid=OTHER_PID),
            ]
        )
        assert [path for path, _c, _s in rows] == [
            ("superstep",),
            ("worker", "worker_shard"),
            ("worker", "worker_shard", "fast_sweep"),
        ]

    def test_foreign_pid_spans_go_under_worker(self):
        rows = span_rows(
            [
                span_event(1, "shard", 2.0, pid=OTHER_PID),
                span_event(2, "sweep", 1.5, parent=1, count=3, pid=OTHER_PID),
                span_event(1, "shard", 1.0, pid=OTHER_PID - 1),
            ]
        )
        assert rows == [
            (("worker", "shard"), 2, 3.0),
            (("worker", "shard", "sweep"), 3, 1.5),
        ]

    def test_other_thread_roots_are_concurrent(self):
        tracer = Tracer()

        def node() -> None:
            with tracer.span("node"):
                pass

        with tracer.span("dispatch"):
            thread = threading.Thread(target=node)
            thread.start()
            thread.join()
        paths = [path for path, _c, _s in span_rows(tracer.events)]
        assert paths == [("dispatch",), ("thread", "node")]
        report = build_profile_report(tracer, total_wall_seconds=1.0, sweeps=1)
        node = next(p for p in report["phases"] if p["phase"] == "thread;node")
        assert node["concurrent"] is True
        dispatch = next(p for p in report["phases"] if p["phase"] == "dispatch")
        assert report["attributed_seconds"] == dispatch["seconds"]
        assert "%*" in render_profile_report(report)

    def test_span_with_missing_parent_is_a_root(self):
        rows = span_rows([span_event(5, "orphan", 0.1, parent=4)])
        assert rows == [(("orphan",), 1, 0.1)]


class TestEscaping:
    @pytest.mark.parametrize(
        "name",
        ["plain", "with space", "semi;colon", "per%cent", "tab\there", "nl\nhere"],
    )
    def test_round_trip(self, name):
        assert unescape_phase(escape_phase(name)) == name
        assert ";" not in escape_phase(name)
        assert " " not in escape_phase(name)


class TestCollapsed:
    def test_self_time_conserved_with_skipped_levels(self):
        # The synthetic ``worker`` root is a skipped level: it has no
        # recorded row, and self time below it must still conserve.
        tracer = tracer_of(
            span_event(1, "root", 1.0, pid=OTHER_PID),
            span_event(2, "deep", 0.3, parent=1, pid=OTHER_PID),
            span_event(3, "y", 0.2, parent=1, pid=OTHER_PID),
        )
        parsed = parse_collapsed(render_collapsed(tracer))
        assert sum(parsed.values()) == 1_000_000
        assert parsed[("worker", "root")] == 500_000

    def test_negative_self_clamped(self):
        tracer = tracer_of(
            span_event(1, "root", 1.0),
            span_event(2, "a", 1.2, parent=1),  # timer jitter: child > parent
        )
        parsed = parse_collapsed(render_collapsed(tracer))
        # Clamped-to-zero self time renders no line at all (flamegraph
        # tools reject zero/negative samples).
        assert ("root",) not in parsed
        assert parsed[("root", "a")] == 1_200_000

    def test_parse_skips_garbage_lines(self):
        text = "a;b 100\nnot a line\nc 5\n"
        assert parse_collapsed(text) == {("a", "b"): 100, ("c",): 5}


def sweep_spans(posts_seconds: float, links_seconds: float) -> list[dict]:
    """Three traced sweeps of 100 posts and 100 links each."""
    events = []
    for sweep_index in range(3):
        base = 3 * sweep_index
        events += [
            span_event(base + 1, "fast_sweep", 0.3),
            span_event(base + 2, "posts", posts_seconds / 3, base + 1, 100),
            span_event(base + 3, "links", links_seconds / 3, base + 1, 100),
        ]
    return events


class TestReport:
    def test_report_and_render(self):
        tracer = tracer_of(*sweep_spans(0.6, 0.25))
        report = build_profile_report(tracer, total_wall_seconds=1.0, sweeps=3)
        assert report["sweeps"] == 3
        assert report["attributed_fraction"] == pytest.approx(0.85)
        assert report["dropped_events"] == 0
        leaves = {p["phase"] for p in report["phases"] if p["leaf"]}
        assert leaves == {"fast_sweep;posts", "fast_sweep;links"}
        posts = next(
            p for p in report["phases"] if p["phase"] == "fast_sweep;posts"
        )
        # The loop span's count makes per-call time per post.
        assert posts["count"] == 300
        assert posts["per_call_us"] == pytest.approx(2000.0)
        text = render_profile_report(report)
        assert "fast_sweep;posts" in text
        assert "attributed 85" in text
        assert "incomplete" not in text

    def test_concurrent_worker_trees_excluded_from_parent(self):
        tracer = tracer_of(
            span_event(1, "dispatch", 0.5),
            span_event(1, "shard", 0.9, pid=OTHER_PID),
            span_event(2, "sweep", 0.8, parent=1, pid=OTHER_PID),
        )
        report = build_profile_report(tracer, total_wall_seconds=0.5, sweeps=1)
        # Parent attribution counts dispatch only; worker time overlaps it.
        assert report["attributed_fraction"] == pytest.approx(1.0)
        assert report["worker_attributed_fraction"] == pytest.approx(
            0.8 / 0.9, rel=1e-3
        )

    def test_dropped_events_mark_report_incomplete(self):
        tracer = Tracer(max_events=4)
        for _ in range(10):
            with tracer.span("fast_sweep"):
                pass
        assert tracer.dropped_events > 0
        report = build_profile_report(tracer, total_wall_seconds=1.0, sweeps=10)
        assert report["dropped_events"] == tracer.dropped_events
        assert "incomplete" in render_profile_report(report)

    def test_compare_profiles_flags_synthetic_slowdown(self):
        baseline = tracer_of(*sweep_spans(0.4, 0.2))
        current = tracer_of(*sweep_spans(0.8, 0.2))  # posts 2x slower
        base_report = build_profile_report(baseline, 0.7, 3)
        cur_report = build_profile_report(current, 1.1, 3)
        verdicts = {
            row["phase"]: row["verdict"]
            for row in compare_profiles(cur_report, base_report)
        }
        assert verdicts["fast_sweep;posts"] == "regressed"
        assert verdicts["fast_sweep;links"] == "ok"


class TestKernelInstrumentation:
    def test_profiled_sweeps_draw_identical_chain(self):
        corpus = small_corpus()
        states = []
        for enabled in (False, True):
            rng = np.random.default_rng(11)
            state = CountState.initialize(corpus, 3, 4, rng)
            hp = Hyperparameters.default(3, 4, corpus)
            cache = SweepCache(state, hp)
            previous = tracing.set_tracer(Tracer() if enabled else None)
            try:
                for _ in range(3):
                    sweep(state, hp, rng, cache=cache)
            finally:
                tracing.set_tracer(previous)
            states.append(state)
        dark, lit = states
        assert np.array_equal(dark.post_comm, lit.post_comm)
        assert np.array_equal(dark.post_topic, lit.post_topic)
        assert np.array_equal(dark.link_src_comm, lit.link_src_comm)

    def test_profiled_sweep_attributes_phases(self):
        corpus = small_corpus()
        rng = np.random.default_rng(3)
        state = CountState.initialize(corpus, 3, 4, rng)
        hp = Hyperparameters.default(3, 4, corpus)
        cache = SweepCache(state, hp)
        tracer = Tracer()
        previous = tracing.set_tracer(tracer)
        try:
            sweep(state, hp, rng, cache=cache)
        finally:
            tracing.set_tracer(previous)
        counts = {path: count for path, count, _s in span_rows(tracer.events)}
        assert counts == {
            ("fast_sweep",): 1,
            ("fast_sweep", "posts"): state.num_posts,
            ("fast_sweep", "links"): state.num_links,
        }

    def test_cache_build_and_refresh_open_one_span_each(self):
        corpus = small_corpus()
        rng = np.random.default_rng(3)
        state = CountState.initialize(corpus, 3, 4, rng)
        hp = Hyperparameters.default(3, 4, corpus)
        tracer = Tracer()
        previous = tracing.set_tracer(tracer)
        try:
            cache = SweepCache(state, hp)
            assert [e["name"] for e in tracer.drain()] == ["sweepcache.build"]
            cache.refresh(state)
            assert [e["name"] for e in tracer.drain()] == ["sweepcache.refresh"]
        finally:
            tracing.set_tracer(previous)


class TestGauges:
    def test_worker_utilization(self):
        util = worker_utilization([2.0, 1.0], [1.5, 0.9], wall_seconds=2.0)
        assert util["busy_fraction"] == pytest.approx(2.4 / 4.0)
        assert util["straggler_ratio"] == pytest.approx(2.0 / 1.5, rel=1e-3)

    def test_worker_utilization_empty(self):
        util = worker_utilization([], [], wall_seconds=1.0)
        assert util["busy_fraction"] == 0.0
        assert util["straggler_ratio"] == 1.0

    def test_memory_gauges_shape(self):
        gauges = memory_gauges()
        assert gauges["rss_peak_mb"] > 0
        assert gauges["major_page_faults"] >= 0
