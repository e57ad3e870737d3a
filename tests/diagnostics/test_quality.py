"""QualityStream: stride gating, signal content, and the zero-draw contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import COLDModel
from repro.diagnostics.quality import (
    QUALITY_KIND,
    QualityStream,
    load_quality_records,
    quality_records,
)
from repro.diagnostics.stats import DiagnosticsError


def _fit(corpus, stream=None, metrics_out=None, iterations=12, seed=0):
    model = COLDModel(
        num_communities=3,
        num_topics=4,
        seed=seed,
        metrics_out=None if metrics_out is None else str(metrics_out),
    )
    model.fit(
        corpus,
        num_iterations=iterations,
        likelihood_interval=4,
        diagnostics=stream,
    )
    return model


class TestValidation:
    def test_stride_must_be_positive(self, tiny_corpus):
        with pytest.raises(DiagnosticsError):
            QualityStream(tiny_corpus, stride=0)

    def test_top_n_must_be_at_least_two(self, tiny_corpus):
        with pytest.raises(DiagnosticsError):
            QualityStream(tiny_corpus, top_n=1)

    def test_truth_labels_shape_checked(self, tiny_corpus):
        with pytest.raises(DiagnosticsError):
            QualityStream(tiny_corpus, truth_labels=np.zeros(3, dtype=np.int64))

    def test_prebuilt_index_must_match_corpus(self, tiny_corpus):
        from repro.eval.coherence import CooccurrenceIndex

        index = CooccurrenceIndex(tiny_corpus)
        index.num_documents += 1
        with pytest.raises(DiagnosticsError, match="does not match"):
            QualityStream(tiny_corpus, index=index)


class TestIndexWarming:
    def test_warm_builds_once_and_chains(self, tiny_corpus):
        stream = QualityStream(tiny_corpus)
        assert stream._index is None
        assert stream.warm() is stream
        built = stream._index
        assert built is not None
        stream.warm()
        assert stream._index is built

    def test_warm_is_noop_without_coherence(self, tiny_corpus):
        stream = QualityStream(tiny_corpus, coherence=False).warm()
        assert stream._index is None

    def test_prebuilt_index_is_reused(self, tiny_corpus):
        from repro.eval.coherence import CooccurrenceIndex

        index = CooccurrenceIndex(tiny_corpus)
        stream = QualityStream(tiny_corpus, stride=4, index=index)
        assert stream._index is index
        fresh = QualityStream(tiny_corpus, stride=4)
        _fit(tiny_corpus, stream)
        _fit(tiny_corpus, fresh)
        assert stream._index is index
        shared = [r["coherence"] for r in stream.history]
        lazy = [r["coherence"] for r in fresh.history]
        assert shared == lazy


class TestStreaming:
    def test_stride_gates_history(self, tiny_corpus, tmp_path):
        stream = QualityStream(tiny_corpus, stride=4)
        _fit(tiny_corpus, stream, tmp_path / "m.jsonl")
        sweeps = [record["sweep"] for record in stream.history]
        assert sweeps == [4, 8, 12]

    def test_records_carry_convergence_chains_and_quality(
        self, tiny_corpus, tiny_truth, tmp_path
    ):
        stream = QualityStream(
            tiny_corpus,
            stride=6,
            truth_labels=tiny_truth.pi.argmax(axis=1),
            holdout=tiny_corpus,
        )
        _fit(tiny_corpus, stream, tmp_path / "m.jsonl")
        record = stream.history[-1]
        assert record["log_likelihood"] < 0
        assert len(record["topic_tokens"]) == 4
        assert 0.0 < record["eta_diag_mean"] < 1.0
        assert record["coherence"] <= 0.0  # UMass is non-positive
        assert 0.0 <= record["nmi"] <= 1.0
        assert record["holdout_perplexity"] > 1.0

    def test_records_land_in_metrics_jsonl(self, tiny_corpus, tmp_path):
        path = tmp_path / "m.jsonl"
        stream = QualityStream(tiny_corpus, stride=4)
        _fit(tiny_corpus, stream, path)
        loaded = load_quality_records(path)
        assert [r["sweep"] for r in loaded] == [4, 8, 12]
        assert all(r["kind"] == QUALITY_KIND for r in loaded)
        # In-memory history and the persisted stream agree.
        for mem, disk in zip(stream.history, loaded):
            assert mem["log_likelihood"] == disk["log_likelihood"]

    def test_optional_signals_absent_when_disabled(self, tiny_corpus, tmp_path):
        stream = QualityStream(tiny_corpus, stride=6, coherence=False)
        _fit(tiny_corpus, stream, tmp_path / "m.jsonl")
        record = stream.history[0]
        assert "coherence" not in record
        assert "nmi" not in record
        assert "holdout_perplexity" not in record

    def test_works_without_telemetry(self, tiny_corpus):
        # No metrics_out: history still accumulates, nothing crashes.
        stream = QualityStream(tiny_corpus, stride=4)
        _fit(tiny_corpus, stream, metrics_out=None)
        assert len(stream.history) == 3

    def test_quality_records_filter(self):
        records = [
            {"kind": "sweep", "sweep": 1},
            {"kind": QUALITY_KIND, "sweep": 5},
            {"kind": "fit_end"},
        ]
        assert quality_records(records) == [{"kind": QUALITY_KIND, "sweep": 5}]


class TestZeroDrawContract:
    def test_draws_bit_identical_with_stream_attached(
        self, tiny_corpus, tmp_path
    ):
        """Diagnostics are read-only: same seed, same chain, exactly."""
        plain = _fit(tiny_corpus, None, tmp_path / "plain.jsonl")
        stream = QualityStream(tiny_corpus, stride=1)  # worst case: every sweep
        streamed = _fit(tiny_corpus, stream, tmp_path / "streamed.jsonl")
        for name in ("pi", "theta", "phi", "psi", "eta"):
            np.testing.assert_array_equal(
                getattr(plain.estimates_, name),
                getattr(streamed.estimates_, name),
                err_msg=f"{name} diverged with diagnostics attached",
            )
        assert plain.monitor_.trace == streamed.monitor_.trace

    def test_perf_harness_equivalence_check_agrees(self, tiny_corpus):
        from repro.perf import BenchCase, draws_identical, instrumented_fit

        case = BenchCase(
            name="tiny",
            num_users=tiny_corpus.num_users,
            num_communities=3,
            num_topics=4,
            num_time_slices=tiny_corpus.num_time_slices,
            vocab_size=tiny_corpus.vocab_size,
            mean_posts_per_user=10.0,
            mean_words_per_post=7.0,
            mean_links_per_user=6.0,
        )

        def replay(enabled):
            return lambda: instrumented_fit(
                tiny_corpus, case, "diagnostics", enabled,
                seed=case.seed + 1, num_iterations=3, likelihood_interval=1,
            ).state_

        assert draws_identical(replay(False), replay(True))
