"""End-to-end tests for the `cold` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.perf import SUITES


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    code = main(
        [
            "generate",
            str(path),
            "--users", "25",
            "--communities", "3",
            "--topics", "4",
            "--time-slices", "6",
            "--vocab", "100",
            "--seed", "5",
        ]
    )
    assert code == 0
    return path


@pytest.fixture()
def model_path(tmp_path, corpus_path):
    path = tmp_path / "model"
    code = main(
        [
            "train",
            str(corpus_path),
            str(path),
            "--communities", "3",
            "--topics", "4",
            "--iterations", "12",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_loadable_corpus(self, corpus_path):
        from repro.datasets.io import load_corpus

        corpus = load_corpus(corpus_path)
        assert corpus.num_users == 25
        assert corpus.num_time_slices == 6

    def test_themed_flag(self, tmp_path):
        path = tmp_path / "themed.jsonl"
        assert main(["generate", str(path), "--themed", "--users", "20"]) == 0
        from repro.datasets.io import load_corpus

        corpus = load_corpus(path)
        assert corpus.vocabulary is not None
        assert not corpus.vocabulary.token_of(0).startswith("term")


class TestTrain:
    def test_writes_model_files(self, model_path):
        assert model_path.with_suffix(".json").exists()
        assert model_path.with_suffix(".npz").exists()

    def test_loaded_model_valid(self, model_path):
        from repro.core.model import COLDModel

        model = COLDModel.load(model_path)
        assert model.estimates_ is not None
        model.estimates_.validate()

    def test_parallel_training(self, tmp_path, corpus_path, capsys):
        path = tmp_path / "par_model"
        code = main(
            [
                "train",
                str(corpus_path),
                str(path),
                "--communities", "3",
                "--topics", "4",
                "--iterations", "6",
                "--nodes", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert path.with_suffix(".npz").exists()

    def test_no_network_flag(self, tmp_path, corpus_path):
        path = tmp_path / "nolink"
        code = main(
            [
                "train", str(corpus_path), str(path),
                "--communities", "3", "--topics", "4",
                "--iterations", "6", "--no-network",
            ]
        )
        assert code == 0


class TestAnalyze:
    def test_prints_all_sections(self, model_path, corpus_path, capsys):
        code = main(["analyze", str(model_path), str(corpus_path), "--topic", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "word cloud" in out
        assert "diffusion graph" in out
        assert "influential communities" in out


class TestPredict:
    def test_prints_accuracy_per_tolerance(self, model_path, corpus_path, capsys):
        code = main(
            [
                "predict", str(model_path), str(corpus_path),
                "--tolerances", "0", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tolerance" in out
        assert out.count("accuracy") == 2


class TestProfile:
    def test_smoke_profile_writes_reports(self, tmp_path, capsys):
        json_out = tmp_path / "profile.json"
        collapsed_out = tmp_path / "profile.collapsed"
        code = main(
            [
                "profile", "--case", "smoke", "--sweeps", "2",
                "--warmup", "1",
                "--json", str(json_out),
                "--collapsed", str(collapsed_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attributed" in out
        assert "fast_sweep;posts" in out
        import json as json_module

        record = json_module.loads(json_out.read_text())
        assert record["phases"]
        assert record["attributed_fraction"] > 0
        assert collapsed_out.read_text().strip()

    def test_rejects_nonpositive_sweeps(self, capsys):
        assert main(["profile", "--case", "smoke", "--sweeps", "0"]) == 2
        assert "sweeps must be positive" in capsys.readouterr().err


class TestBenchCompare:
    """--compare/--strict against a canned (monkeypatched) bench run."""

    PAYLOAD = {
        "benchmark": "collapsed Gibbs sweep, reference vs fast kernels",
        "git_describe": "test-stamp",
        "machine": {"cpu_count": 1},
        "cases": [
            {
                "name": "smoke",
                "reference_seconds_per_sweep": 0.03,
                "fast_seconds_per_sweep": 0.01,
                "speedup": 3.0,
                "draws_match": True,
                "peak_rss_mb": 80.0,
            },
        ],
    }

    @pytest.fixture()
    def fake_bench(self, monkeypatch):
        """Make `cold bench` (no suite flags) write self.PAYLOAD instantly."""
        import copy
        import json as json_module

        state = {"payload": copy.deepcopy(self.PAYLOAD)}

        def fake_write(name, path, *args, **kwargs):
            payload = copy.deepcopy(state["payload"])
            import pathlib

            pathlib.Path(path).write_text(json_module.dumps(payload))
            return payload

        monkeypatch.setattr("repro.perf.write_suite", fake_write)
        return state

    def test_unchanged_rerun_passes_strict(self, tmp_path, capsys, fake_bench):
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        base = ["bench", str(out_path), "--history", str(history)]
        assert main(base) == 0
        assert main(base + ["--compare", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out
        assert history.exists()

    def test_injected_regression_fails_strict(
        self, tmp_path, capsys, fake_bench
    ):
        out_path = tmp_path / "bench.json"
        args = [
            "bench", str(out_path), "--no-history", "--compare", "--strict",
        ]
        assert main(args) == 0  # no baseline yet: nothing to compare
        fake_bench["payload"]["cases"][0]["fast_seconds_per_sweep"] = 0.02
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "regression" in captured.err

    def test_ledger_appends_and_no_history_skips(
        self, tmp_path, capsys, fake_bench
    ):
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        assert main(["bench", str(out_path), "--history", str(history)]) == 0
        assert main(["bench", str(out_path), "--history", str(history)]) == 0
        from repro.perf import read_history

        assert len(read_history(history)) == 2
        assert (
            main(["bench", str(out_path), "--no-history",
                  "--history", str(history)])
            == 0
        )
        assert len(read_history(history)) == 2

    def test_baseline_ledger_spec(self, tmp_path, capsys, fake_bench):
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        assert main(["bench", str(out_path), "--history", str(history)]) == 0
        fake_bench["payload"]["cases"][0]["fast_seconds_per_sweep"] = 0.02
        code = main(
            [
                "bench", str(out_path), "--history", str(history),
                "--compare", "--strict", "--baseline", str(history),
            ]
        )
        assert code == 1

    def test_ledger_baseline_matches_suite(self, tmp_path, capsys):
        # A ledger baseline is the last record *of the suite being run*:
        # a later record of another suite must not shadow it (it shares
        # no metrics, so --strict would pass without comparing anything).
        import json as json_module

        from repro.perf import append_history, metric_direction, read_history

        out_path = tmp_path / "parallel.json"
        ledger = tmp_path / "history.jsonl"
        argv = [
            "bench", str(out_path), "--parallel", "--cases", "smoke",
            "--nodes", "1", "--executor", "simulated", "--sweeps", "1",
            "--equivalence-sweeps", "1",
        ]
        assert main(argv + ["--history", str(ledger)]) == 0
        (record,) = read_history(ledger)
        record["metrics"] = {
            name: value / 10 if metric_direction(name) == "lower" else value * 10
            for name, value in record["metrics"].items()
        }
        ledger.write_text(json_module.dumps(record) + "\n")
        append_history(
            {
                "benchmark": SUITES["gibbs"].benchmark,
                "cases": [{"name": "smoke", "fast_seconds_per_sweep": 0.01}],
            },
            ledger,
        )
        code = main(
            argv + ["--no-history", "--compare", "--strict",
                    "--baseline", str(ledger)]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().out


#: What each suite wrote before the registry replaced the per-suite
#: writers: ledger title, top-level keys, and first-case keys.  Committed
#: BENCH_*.json files and ledger rows stay comparable only while these hold.
SUITE_SHAPES = {
    "gibbs": (
        "collapsed Gibbs sweep, reference vs fast kernels",
        ["--warmup", "1", "--reps", "1", "--sweeps-per-rep", "1"],
        set(),
        {
            "config", "corpus", "draws_match", "fast_seconds_per_sweep",
            "name", "occupancy", "peak_rss_mb",
            "reference_seconds_per_sweep", "speedup",
        },
    ),
    "parallel": (
        "parallel COLD sampling, scaling over cluster nodes",
        ["--parallel", "--nodes", "1", "--executor", "simulated",
         "--sweeps", "1", "--equivalence-sweeps", "1"],
        {"cpu_count"},
        {
            "config", "corpus", "draws_match", "draws_match_nodes",
            "executor", "name", "num_workers", "peak_rss_mb", "scaling",
            "sweeps",
        },
    ),
    "diagnostics": (
        "quality-streaming diagnostics overhead per Gibbs sweep",
        ["--diagnostics", "--sweeps", "2", "--reps", "1", "--stride", "1",
         "--equivalence-sweeps", "1"],
        set(),
        {
            "config", "draws_match", "index_build_seconds", "name",
            "off_seconds_per_sweep", "on_seconds_per_sweep",
            "overhead_fraction", "peak_rss_mb", "reps", "stride", "sweeps",
        },
    ),
    "serving": (
        "prediction serving layer, QPS and client-side latency",
        ["--serving", "--requests", "4", "--concurrency", "1"],
        {"cpu_count"},
        {
            "cache", "completed", "concurrency", "config", "endpoints",
            "errors", "metrics_exposition", "model", "name", "num_requests",
            "p50_ms", "p99_ms", "peak_rss_mb", "qps",
            "request_id_mismatches",
        },
    ),
    "streaming": (
        "incremental stream updates vs full batch refit",
        ["--streaming", "--updates", "1"],
        set(),
        {
            "baseline", "bootstrap_events", "bootstrap_fraction",
            "bootstrap_seconds", "equivalence", "equivalent", "final_links",
            "final_posts", "final_slices", "final_vocab", "fit_iterations",
            "mean_update_seconds", "name", "num_events", "peak_rss_mb",
            "refit_seconds", "speedup", "streamed_events", "update_sweeps",
            "updates",
        },
    ),
}

_COMMON_TOP_KEYS = {
    "benchmark", "cases", "git_describe", "harness", "machine", "method",
    "numpy", "python",
}


class TestBenchSuites:
    @pytest.mark.parametrize("suite", list(SUITES))
    def test_smoke_run_keeps_payload_shape(self, suite, tmp_path, capsys):
        import json as json_module

        from repro.perf import read_history

        title, flags, extra_top, case_keys = SUITE_SHAPES[suite]
        out_path = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        code = main(
            ["bench", str(out_path), "--cases", "smoke",
             "--history", str(history), *flags]
        )
        assert code == 0
        payload = json_module.loads(out_path.read_text())
        record = payload["cases"][0]
        assert SUITES[suite].summary(record) in capsys.readouterr().out
        assert [row["benchmark"] for row in read_history(history)] == [title]
        assert set(payload) - {"packed_scaling"} == _COMMON_TOP_KEYS | extra_top
        assert set(record) == case_keys
        if suite == "serving":
            assert set(record["endpoints"]) == {
                "/v1/query/retweet", "/v1/query/link",
                "/v1/query/timestamp", "/v1/query/influential",
            }
