"""Opt-in perf gate: quality streaming costs < 5% per sweep, zero draws.

Run with ``pytest benchmarks/perf -m perf``.  Excluded from the default
suite (``-m 'not perf'`` in pyproject) because it asserts on
machine-dependent wall-clock timings.

This is the teeth behind the diagnostics layer's contract: attaching a
stride-10 :class:`repro.diagnostics.QualityStream` (coherence + scalar
convergence chains, evaluated every tenth sweep) may not slow the fit by
more than 5% per sweep *amortised*, and — timing aside — the sampled
chain must be bit-identical with the stream attached or not, because
diagnostics are strictly read-only and never touch the RNG.
"""

from __future__ import annotations

import pytest

from repro.perf import MEDIUM, run_overhead_case

pytestmark = pytest.mark.perf


def test_medium_case_overhead_under_5_percent():
    record = run_overhead_case(
        MEDIUM, "diagnostics", sweeps=20, reps=4, stride=10
    )
    assert record["draws_match"], "quality streaming changed the drawn chain"
    if record["overhead_fraction"] >= 0.05:
        # A contended host can starve one mode of a quiet window even
        # with interleaved reps; escalate to more samples once before
        # declaring a real regression.
        record = run_overhead_case(
            MEDIUM, "diagnostics", sweeps=20, reps=8, stride=10
        )
    assert record["overhead_fraction"] < 0.05, (
        f"quality streaming costs {record['overhead_fraction']:.1%} per "
        f"sweep amortised ({record['off_seconds_per_sweep']:.4f}s plain -> "
        f"{record['on_seconds_per_sweep']:.4f}s streaming at stride "
        f"{record['stride']})"
    )
