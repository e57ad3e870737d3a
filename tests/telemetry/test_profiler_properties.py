"""Property tests for the profiler's serialization surfaces.

Two round-trip contracts carry the observatory's data between processes
and tools, and both must survive adversarial names and crash-torn files:

* the collapsed-stack text (``cold profile --collapsed``) — phase names
  containing ``;``, whitespace, or ``%`` must encode unambiguously, and
  the self times rendered from a span tree must conserve its root totals;
* the benchmark regression ledger (``benchmarks/history.jsonl``) — an
  append-crash mid-record may not corrupt earlier entries or invent new
  ones.
"""

from __future__ import annotations

import os
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import append_history, read_history
from repro.telemetry.profiler import (
    escape_phase,
    parse_collapsed,
    parse_phase_key,
    phase_key,
    render_collapsed,
    span_rows,
    unescape_phase,
)
from repro.telemetry.tracing import Tracer

#: Phase names including every reserved character of the collapsed format.
_NAMES = st.text(
    alphabet=st.sampled_from(list("ab%; \t\n\r0")), min_size=1, max_size=8
)

#: A span tree as ``(name, parent pick, microseconds)`` per span: span
#: ``i`` nests under span ``pick`` when ``pick < i``, else it is a root.
_TREES = st.lists(
    st.tuples(
        _NAMES,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=100_000_000),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(name=_NAMES)
def test_escape_round_trips_and_reserves_nothing(name):
    escaped = escape_phase(name)
    assert unescape_phase(escaped) == name
    assert ";" not in escaped
    assert " " not in escaped
    assert "\t" not in escaped
    assert "\n" not in escaped


@settings(max_examples=200, deadline=None)
@given(path=st.lists(_NAMES, min_size=1, max_size=5).map(tuple))
def test_phase_key_round_trips(path):
    assert parse_phase_key(phase_key(path)) == path


@settings(max_examples=100, deadline=None)
@given(tree=_TREES)
def test_collapsed_conserves_root_totals(tree):
    """Self-time lines sum back to the inclusive time of the root spans.

    Only *roots* carry conserved mass: each span's inclusive time is
    subtracted from its parent's, so everything below a root
    redistributes within it.  Trees are generated to honour the
    nested-timer invariant — a span's children never sum past its own
    duration (real spans are disjoint in time under their parent) — so
    no clamping occurs and conservation is exact up to 1µs rounding per
    path, even where same-named siblings fold into one path.
    """
    pid, tid = os.getpid(), threading.get_ident()
    events = []
    remaining: dict[int, int] = {}
    root_micros = 0
    for index, (name, pick, raw) in enumerate(tree):
        parent = pick if pick < index else None
        micros = raw
        if parent is None:
            root_micros += micros
        else:
            micros = min(raw, remaining[parent])
            remaining[parent] -= micros
        remaining[index] = micros
        events.append(
            {
                "name": name,
                "ph": "X",
                "ts": 0.0,
                "dur": float(micros),
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": index + 1,
                    "parent": None if parent is None else parent + 1,
                },
            }
        )
    tracer = Tracer()
    tracer.extend(events)
    paths = {path for path, _c, _s in span_rows(events)}
    parsed = parse_collapsed(render_collapsed(tracer))
    assert abs(sum(parsed.values()) - root_micros) <= len(paths)
    for path in parsed:
        assert path in paths


@settings(max_examples=50, deadline=None)
@given(
    metrics=st.lists(
        st.tuples(
            st.sampled_from(
                ["fast_seconds_per_sweep", "speedup", "qps", "p99_ms"]
            ),
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda kv: kv[0],
    ),
    torn=st.integers(min_value=0, max_value=40),
)
def test_ledger_append_read_survives_torn_tail(tmp_path_factory, metrics, torn):
    path = tmp_path_factory.mktemp("ledger") / "history.jsonl"
    payload = {
        "benchmark": "property",
        "git_describe": "test",
        "machine": {"cpu_count": 1},
        "metrics": dict(metrics),
    }
    first = append_history(payload, path)
    assert first["metrics"] == dict(metrics)
    # Crash mid-append: a torn prefix of a would-be second record.
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "bench", "benchmark": "torn"' [:torn])
    second = append_history(payload, path)
    records = read_history(path)
    # Both complete records surface; the torn line never does.
    assert len(records) == 2
    assert all(r["benchmark"] == "property" for r in records)
    assert records[-1]["metrics"] == second["metrics"]
    assert read_history(path, benchmark="property") == records
    assert read_history(path, benchmark="other") == []
