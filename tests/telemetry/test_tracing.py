"""Span nesting, Chrome trace_event export, and the no-op fast path."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Tests here manage the module-global tracer explicitly."""
    previous = tracing.set_tracer(None)
    yield
    tracing.set_tracer(previous)


class TestNullPath:
    def test_span_without_tracer_is_shared_noop(self):
        first = tracing.span("sweep", sweep=1)
        second = tracing.span("merge")
        assert first is second  # one shared object, zero allocation
        with first:
            pass  # enters and exits without error

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with tracing.span("sweep"):
                raise RuntimeError("boom")


class TestTracer:
    def test_nesting_records_parent_child_ids(self):
        tracer = tracing.Tracer()
        with tracer.span("fit") as fit:
            with tracer.span("sweep", sweep=0) as sweep:
                pass
            with tracer.span("sweep", sweep=1) as sibling:
                pass
        events = {e["args"]["id"]: e for e in tracer.events}
        assert events[fit.span_id]["args"]["parent"] is None
        assert events[sweep.span_id]["args"]["parent"] == fit.span_id
        assert events[sibling.span_id]["args"]["parent"] == fit.span_id
        assert events[sweep.span_id]["args"]["sweep"] == 0

    def test_events_are_complete_chrome_events(self):
        tracer = tracing.Tracer()
        with tracer.span("sweep"):
            pass
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()
        assert event["dur"] >= 0
        assert event["ts"] > 0

    def test_module_span_uses_active_tracer(self):
        tracer = tracing.Tracer()
        assert tracing.set_tracer(tracer) is None
        with tracing.span("sweep"):
            pass
        assert tracing.set_tracer(None) is tracer
        assert [e["name"] for e in tracer.events] == ["sweep"]
        assert tracing.get_tracer() is None

    def test_drain_empties_and_extend_absorbs(self):
        worker = tracing.Tracer()
        with worker.span("worker_shard", node=1):
            pass
        shipped = worker.drain()
        assert len(shipped) == 1
        assert worker.events == []
        parent = tracing.Tracer()
        with parent.span("superstep"):
            pass
        parent.extend(shipped)
        assert sorted(e["name"] for e in parent.events) == [
            "superstep",
            "worker_shard",
        ]

    def test_max_events_drops_oldest_half(self):
        tracer = tracing.Tracer(max_events=4)
        for index in range(6):
            with tracer.span("s", i=index):
                pass
        trace = tracer.to_chrome_trace()
        assert trace["otherData"]["dropped_events"] > 0
        kept = [e["args"]["i"] for e in trace["traceEvents"]]
        assert kept[-1] == 5  # newest events survive

    def test_extend_past_max_events_trims_and_counts(self):
        worker = tracing.Tracer()
        for index in range(50):
            with worker.span("worker_shard", i=index):
                pass
        parent = tracing.Tracer(max_events=10)
        parent.extend(worker.drain())
        kept = [e["args"]["i"] for e in parent.events]
        assert len(kept) <= 10
        assert kept[-1] == 49  # newest events survive
        assert parent.dropped_events == 50 - len(kept)
        trace = parent.to_chrome_trace()
        assert trace["otherData"]["dropped_events"] == 50 - len(kept)

    def test_to_chrome_trace_sorted_and_save_loadable(self, tmp_path):
        tracer = tracing.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tracer.save(tmp_path / "deep" / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        stamps = [e["ts"] for e in loaded["traceEvents"]]
        assert stamps == sorted(stamps)
        assert {e["name"] for e in loaded["traceEvents"]} == {"outer", "inner"}

    def test_thread_spans_do_not_share_stacks(self):
        tracer = tracing.Tracer()
        done = threading.Event()

        def worker():
            with tracer.span("thread_root"):
                done.set()

        with tracer.span("main_root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        by_name = {e["name"]: e for e in tracer.events}
        # Each thread starts its own stack: neither root has a parent.
        assert by_name["thread_root"]["args"]["parent"] is None
        assert by_name["main_root"]["args"]["parent"] is None
