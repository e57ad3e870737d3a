"""Opt-in perf gate: the serving layer must hold QPS and tail latency.

Run with ``pytest benchmarks/perf -m perf``.  Excluded from the default
suite (``-m 'not perf'`` in pyproject) because it asserts on
machine-dependent wall-clock timings.

The gate pins the resilient serving layer's reason to exist: with the
precomputed tensors and warmed caches, a loopback ``ColdHTTPServer``
must sustain a realistic mixed query load with zero errors, no shed or
timed-out requests at benchmark concurrency, and a p99 well under the
default request deadline.  Floors are deliberately loose (an order of
magnitude under a quiet machine's numbers) so only a real regression —
a lock on the hot path, an accidental per-request model rebuild — trips
them.
"""

from __future__ import annotations

import pytest

from repro.perf import SMOKE, run_serving_case

pytestmark = pytest.mark.perf


def test_smoke_case_sustains_load():
    record = run_serving_case(
        SMOKE, fit_iterations=20, num_requests=400, concurrency=4
    )
    assert record["errors"] == 0, (
        f"{record['errors']} non-200 responses under benchmark load"
    )
    assert record["completed"] == record["num_requests"]
    assert record["qps"] >= 100, (
        f"throughput regressed: {record['qps']:.0f} qps"
    )
    assert record["p99_ms"] < 250, (
        f"tail latency regressed: p99 {record['p99_ms']:.1f}ms"
    )
    assert record["p50_ms"] < 50, (
        f"median latency regressed: p50 {record['p50_ms']:.1f}ms"
    )
    # Every query family must be represented in the timed mix.
    assert set(record["endpoints"]) == {
        "/v1/query/retweet",
        "/v1/query/link",
        "/v1/query/timestamp",
        "/v1/query/influential",
    }
    # The mix drives only the versioned routes, never the deprecated ones.
    assert record["metrics_exposition"]["legacy_requests_total"] == 0
    # The warmed fold cache is doing its job on the hot retweet path.
    assert record["cache"]["hits"] > 0
