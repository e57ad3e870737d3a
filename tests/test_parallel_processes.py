"""Tests for the shared-memory ``processes`` executor.

Covers the tentpole invariants: draw identity against the ``simulated``
oracle (regardless of worker count), deterministic barrier merges under
permuted shard completion order, and superstep replay after a *real*
worker process death, plus the config/model/CLI-level wiring validation.
"""

import numpy as np
import pytest

from repro.core.config import COLDConfig, ConfigError
from repro.core.model import COLDModel, ModelError
from repro.core.params import Hyperparameters
from repro.core.state import CountState
from repro.parallel.engine import EngineError
from repro.parallel.graph import ComputationGraph
from repro.parallel.partition import partition_graph
from repro.parallel.sampler import ParallelCOLDSampler
from repro.parallel.worker import COUNTER_FIELDS, ProcessWorkerPool
from repro.resilience.faults import FaultPlan, NodeCrash
from repro.resilience.retry import RetryPolicy

ASSIGNMENTS = ("post_comm", "post_topic", "link_src_comm", "link_dst_comm")


def _fit(corpus, executor, num_nodes=3, num_workers=None, **kwargs):
    sampler = ParallelCOLDSampler(
        num_communities=3,
        num_topics=4,
        num_nodes=num_nodes,
        executor=executor,
        num_workers=num_workers,
        prior="scaled",
        seed=5,
        **kwargs,
    )
    return sampler.fit(corpus, num_iterations=4)


def _assert_same_chain(a, b):
    for name in ASSIGNMENTS:
        np.testing.assert_array_equal(
            getattr(a.state_, name), getattr(b.state_, name), err_msg=name
        )
    assert a.state_.degenerate_draws == b.state_.degenerate_draws


class TestDrawIdentity:
    def test_processes_matches_simulated_bitwise(self, tiny_corpus):
        simulated = _fit(tiny_corpus, "simulated")
        processes = _fit(tiny_corpus, "processes")
        _assert_same_chain(simulated, processes)
        np.testing.assert_allclose(
            simulated.estimates_.pi, processes.estimates_.pi
        )

    def test_threads_matches_simulated_bitwise(self, tiny_corpus):
        simulated = _fit(tiny_corpus, "simulated")
        threads = _fit(tiny_corpus, "threads")
        _assert_same_chain(simulated, threads)

    def test_worker_count_does_not_change_draws(self, tiny_corpus):
        full = _fit(tiny_corpus, "processes")
        multiplexed = _fit(tiny_corpus, "processes", num_workers=1)
        _assert_same_chain(full, multiplexed)

    def test_merged_counters_equal_recount(self, tiny_corpus):
        processes = _fit(tiny_corpus, "processes")
        processes.state_.check_invariants()

    def test_no_network_mode(self, tiny_corpus):
        sampler = _fit(tiny_corpus, "processes", include_network=False)
        assert sampler.state_.num_links == 0
        sampler.state_.check_invariants()


class TestMergeDeterminism:
    """The barrier merge must not depend on shard completion order."""

    def _run_superstep(self, corpus, dispatch_order):
        rng = np.random.default_rng(9)
        state = CountState.initialize(corpus, 3, 4, rng)
        hp = Hyperparameters.scaled(3, 4, corpus)
        graph = ComputationGraph.from_corpus(corpus)
        shards, _stats = partition_graph(graph, len(dispatch_order))
        node_rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(5).spawn(len(shards))
        ]
        degenerates = [0] * len(shards)
        with ProcessWorkerPool(state, hp, shards) as pool:
            pool.begin_superstep(state)
            for node in dispatch_order:
                reply = pool.run_shard(node, node_rngs[node].bit_generator.state)
                node_rngs[node].bit_generator.state = reply["rng_state"]
                degenerates[node] = reply["degenerate_draws"]
            pool.merge_into(state, 0, degenerates)
            # A retried merge (idempotence) must reproduce the same result.
            pool.merge_into(state, 0, degenerates)
        state.check_invariants()
        return state

    def test_permuted_completion_orders_merge_identically(self, tiny_corpus):
        natural = self._run_superstep(tiny_corpus, [0, 1, 2, 3])
        permuted = self._run_superstep(tiny_corpus, [3, 1, 0, 2])
        for name in ASSIGNMENTS:
            np.testing.assert_array_equal(
                getattr(natural, name), getattr(permuted, name), err_msg=name
            )
        for name in COUNTER_FIELDS:
            np.testing.assert_array_equal(
                getattr(natural, name), getattr(permuted, name), err_msg=name
            )


class TestCrashReplay:
    def test_killed_worker_is_replayed(self, tiny_corpus):
        plan = FaultPlan(crashes=(NodeCrash(superstep=2, node=1, progress=0.4),))
        sampler = _fit(
            tiny_corpus,
            "processes",
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        assert plan.injected_crashes == 1
        assert sampler.report_.total_retries == 1
        sampler.state_.check_invariants()
        sampler.estimates_.validate()


class TestValidation:
    def test_sampler_rejects_bad_worker_counts(self):
        with pytest.raises(EngineError):
            ParallelCOLDSampler(
                num_communities=3, num_topics=4,
                executor="processes", num_workers=0,
            )
        with pytest.raises(EngineError):
            ParallelCOLDSampler(
                num_communities=3, num_topics=4,
                executor="simulated", num_workers=2,
            )

    def test_config_validates_executor_fields(self):
        config = COLDConfig(executor="processes", num_nodes=4, num_workers=2)
        assert config.model_kwargs()["num_workers"] == 2
        with pytest.raises(ConfigError):
            COLDConfig(executor="bogus")
        with pytest.raises(ConfigError):
            COLDConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            COLDConfig(executor="simulated", num_workers=2)

    def test_model_validates_executor_fields(self):
        with pytest.raises(ModelError):
            COLDModel(num_communities=3, num_topics=4, executor="bogus")
        with pytest.raises(ModelError):
            COLDModel(num_communities=3, num_topics=4, num_nodes=0)
        with pytest.raises(ModelError):
            COLDModel(num_communities=3, num_topics=4, num_workers=2)

    def test_parallel_model_rejects_checkpointing(self, tiny_corpus):
        model = COLDModel(
            num_communities=3, num_topics=4, prior="scaled", num_nodes=2
        )
        with pytest.raises(ModelError):
            model.fit(tiny_corpus, num_iterations=2, checkpoint_every=1)
        with pytest.raises(ModelError):
            model.fit(tiny_corpus, num_iterations=2, callback=lambda *a: None)


class TestModelDelegation:
    def test_parallel_fit_through_model(self, tiny_corpus, tmp_path):
        model = COLDModel(
            num_communities=3,
            num_topics=4,
            prior="scaled",
            seed=5,
            num_nodes=3,
            executor="processes",
        ).fit(tiny_corpus, num_iterations=4)
        assert model.cluster_report_ is not None
        assert len(model.cluster_report_.supersteps) == 4
        sampler = _fit(tiny_corpus, "processes")
        np.testing.assert_allclose(model.estimates_.pi, sampler.estimates_.pi)

        model.save(tmp_path / "m")
        loaded = COLDModel.load(tmp_path / "m")
        assert loaded.executor == "processes"
        assert loaded.num_nodes == 3
        assert loaded.num_workers is None
        np.testing.assert_allclose(loaded.estimates_.pi, model.estimates_.pi)


class TestUtilizationTelemetry:
    def test_sweep_records_carry_utilization_and_memory(
        self, tiny_corpus, tmp_path
    ):
        from repro.telemetry.metrics import read_jsonl

        metrics = tmp_path / "metrics.jsonl"
        _fit(tiny_corpus, "processes", num_workers=2, metrics_out=metrics)
        sweeps = [r for r in read_jsonl(metrics) if r.get("kind") == "sweep"]
        assert sweeps
        for record in sweeps:
            assert 0.0 <= record["busy_fraction"] <= 1.0
            assert record["straggler_ratio"] >= 1.0
            assert record["rss_peak_mb"] > 0
            assert record["major_page_faults"] >= 0

    def test_profiled_parallel_fit_matches_dark(self, tiny_corpus):
        from repro.telemetry import tracing
        from repro.telemetry.profiler import span_rows

        dark = _fit(tiny_corpus, "processes", num_workers=2)
        tracer = tracing.Tracer()
        previous = tracing.set_tracer(tracer)
        try:
            lit = _fit(tiny_corpus, "processes", num_workers=2)
        finally:
            tracing.set_tracer(previous)
        _assert_same_chain(dark, lit)
        # Worker shard spans came home over the reply pipe.
        assert any(
            path[:2] == ("worker", "worker_shard")
            for path, _c, _s in span_rows(tracer.events)
        )
