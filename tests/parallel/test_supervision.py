"""Unit tests for executor health, fault plans and executor teardown.

The chaos suite (:mod:`tests.parallel.test_faults`) exercises these
components through real shard threads; this module pins their contracts
in isolation — a patched clock instead of sleeps — so every edge
(warning dedupe, fault-plan grammar, teardown idempotency) is
deterministic.
"""

import gc
import random
import warnings

import pytest

from repro.errors import ConfigError
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel import executor as executor_module
from repro.parallel.executor import WARN_INTERVAL, ShardedOracleExecutor
from repro.parallel.faults import FaultPlan
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def health_counters():
    values = metrics_registry().counter_values()
    return (
        values[metric_names.DEGRADATION_INCIDENTS_TOTAL],
        values[metric_names.DEGRADATION_TRANSITIONS_TOTAL],
    )


# ----------------------------------------------------------------------
# Executor health
# ----------------------------------------------------------------------
class TestExecutorHealth:
    def test_starts_sharded_without_incidents(self):
        executor = ShardedOracleExecutor(2)
        report = executor.health_report()
        assert report == {
            "state": "sharded",
            "reason": None,
            "incidents": {},
            "workers": 2,
            "mode": "threads",
            "plane_generation": 0,
        }
        assert executor.degraded is None
        executor.close()

    def test_incidents_are_counted_without_leaving_sharded(self):
        executor = ShardedOracleExecutor(2)
        before = health_counters()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            executor._note_incident(RuntimeError("shard 1"))
            executor._note_incident(RuntimeError("shard 2"))
        report = executor.health_report()
        assert report["incidents"] == {"THREAD_ERROR": 2}
        assert report["state"] == "sharded" and report["reason"] is None
        assert health_counters() == (before[0] + 2, before[1] + 2)
        executor.close()

    @pytest.mark.parametrize(
        "workers, reason", [(1, "SINGLE_WORKER"), (2, "CLOSED")]
    )
    def test_halting_is_terminal(self, workers, reason):
        """Close halts for good and is counted once, at the first close of
        a sharded executor; a single-worker executor was never sharded and
        keeps its reason."""
        executor = ShardedOracleExecutor(workers, min_batch=1)
        before = health_counters()
        executor.close()
        executor.close()
        report = executor.health_report()
        assert report["state"] == "halted"
        assert report["reason"] == executor.degraded == reason
        moved = 1 if workers > 1 else 0
        assert health_counters() == (before[0] + moved, before[1] + moved)
        graph = tiny_graph()
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )
        assert not executor.pool_running

    def test_one_warning_per_interval(self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(executor_module.time, "monotonic", lambda: now[0])
        executor = ShardedOracleExecutor(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor._note_incident(RuntimeError("shard 1 raised"))
            executor._note_incident(RuntimeError("shard 2 raised"))
            now[0] += WARN_INTERVAL - 1.0
            executor._note_incident(RuntimeError("shard 3 raised"))
            now[0] += 1.0  # interval elapsed: warn again
            executor._note_incident(RuntimeError("shard 4 raised"))
        texts = [str(w.message) for w in caught]
        assert len(texts) == 2
        assert all("THREAD_ERROR" in text for text in texts)
        # Warnings carry the failure and what was done about it.
        assert "shard 1 raised" in texts[0] and "shard 4 raised" in texts[1]
        assert "recomputed serially" in texts[0]
        assert executor.health_report()["incidents"] == {"THREAD_ERROR": 4}
        executor.close()

    def test_halting_never_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ShardedOracleExecutor(1).close()
            ShardedOracleExecutor(2).close()
        assert caught == []


# ----------------------------------------------------------------------
# FaultPlan grammar
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_full_spec_roundtrip(self):
        plan = FaultPlan.parse("shard=2,5;seed=7")
        assert plan.shard_failures == {2, 5}
        assert plan.seed == 7

    def test_empty_and_whitespace_entries_are_ignored(self):
        plan = FaultPlan.parse(" shard=1 ; ;; seed=3 ")
        assert plan.shard_failures == {1}
        assert plan.seed == 3

    @pytest.mark.parametrize(
        "spec",
        [
            # Process-pool fault kinds are gone; an old spec must fail
            # loudly instead of silently injecting nothing.
            "kill=x0:1",
            "kill=w0:0",
            "kill=w0:abc",
            "delay=w0:1",
            "publish=zero",
            "frobnicate=w0:1",  # unknown kind
            "shard=0",  # ordinals are 1-based
            "shard=abc",
            # The ingest writer has no fault hook.
            "writer=1",
            "writer=-1",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "shard=2")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.shard_failures == {2}

    def test_malformed_env_spec_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "shard=abc")
        with pytest.raises(ConfigError, match="REPRO_FAULTS"):
            FaultPlan.from_env()

    def test_shard_counter_fires_exactly_at_its_ordinal(self):
        plan = FaultPlan.parse("shard=2")
        assert [plan.next_shard_fails() for _ in range(4)] == [
            False,
            True,
            False,
            False,
        ]


# ----------------------------------------------------------------------
# Teardown idempotency / crash safety
# ----------------------------------------------------------------------
def tiny_graph():
    rng = random.Random(5)
    graph = TDNGraph()
    for t in range(4):
        graph.advance_to(t)
        for _ in range(8):
            u, v = rng.sample(range(12), 2)
            graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, 30))
    return graph


class TestTeardownSafety:
    def test_double_close_without_pool(self):
        executor = ShardedOracleExecutor(2)
        executor.close()
        executor.close()
        assert executor.degraded is not None

    def test_close_after_failed_init_is_a_noop(self):
        # Simulate __init__ dying before any attribute existed.
        husk = ShardedOracleExecutor.__new__(ShardedOracleExecutor)
        husk.close()  # must not raise

    def test_init_validation_leaves_a_closeable_instance(self):
        with pytest.raises(ValueError):
            ShardedOracleExecutor(-1)

    @pytest.mark.parametrize("workers", ["2", 2.5, True, None, 0, -1])
    def test_workers_must_be_an_int_of_at_least_one(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            ShardedOracleExecutor(workers)

    def test_double_close_with_live_pool(self):
        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )
        assert executor.pool_running
        threads = list(executor._pool._threads)
        executor.close()
        executor.close()  # second close: clean no-op
        assert not executor.pool_running
        assert threads and not any(t.is_alive() for t in threads)
        # A closed executor still serves (serially, exactly).
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )

    def test_abandoned_executor_is_collected_cleanly(self):
        """An executor dropped without close() lets its threads exit."""
        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        sets = [[i] for i in range(graph.num_interned)]
        executor.spread_counts(graph, sets)
        threads = list(executor._pool._threads)
        assert threads
        del executor
        gc.collect()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)

    def test_finalizer_and_close_do_not_race(self):
        """close() then collection: the pool's collection hook must find
        nothing left to stop, and must neither raise nor warn."""
        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        sets = [[i] for i in range(graph.num_interned)]
        executor.spread_counts(graph, sets)
        threads = list(executor._pool._threads)
        executor.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del executor
            gc.collect()
        assert caught == []
        assert threads and not any(t.is_alive() for t in threads)

    def test_plane_double_close(self):
        """Clones cut, then two closes: the clones are released once and
        the closed executor never cuts clones again."""
        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        assert len(executor.ensure_plane(graph)) == 2
        generation = executor.health_report()["plane_generation"]
        executor.close()
        executor.close()
        assert executor._clones == {}
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )
        assert executor.health_report()["plane_generation"] == generation
        assert not executor.pool_running
