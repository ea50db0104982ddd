"""Unit tests for the degradation ladder, fault plans and executor teardown.

The chaos suite (:mod:`tests.parallel.test_faults`) exercises these
components through real shard threads; this module pins their contracts
in isolation — injected clocks instead of sleeps — so every edge
(warning dedupe, fault-plan grammar, teardown
idempotency) is deterministic.
"""

import gc
import random
import warnings

import pytest

from repro.errors import ConfigError
from repro.parallel.degradation import (
    TERMINAL_REASONS,
    DegradationLadder,
    DegradationReason,
    DegradationState,
)
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.faults import FaultPlan
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class Clock:
    """Injectable monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# DegradationLadder
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def make(self, **kwargs):
        clock = Clock()
        kwargs.setdefault("clock", clock)
        return DegradationLadder(**kwargs), clock

    def test_starts_sharded_and_healthy(self):
        ladder, _ = self.make()
        assert ladder.state is DegradationState.SHARDED
        assert ladder.healthy and not ladder.halted
        assert ladder.report()["transitions"] == []

    def test_non_terminal_degrade_is_degraded_not_halted(self):
        ladder, _ = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder.degrade(DegradationReason.WRITER_DEATH, "budget spent")
        assert ladder.state is DegradationState.DEGRADED
        assert not ladder.healthy and not ladder.halted
        report = ladder.report()
        assert report["reason"] == "WRITER_DEATH"
        assert report["detail"] == "budget spent"
        assert [r["event"] for r in report["transitions"]] == ["degraded"]
        # A terminal reason still halts a degraded ladder.
        ladder.degrade(DegradationReason.CLOSED)
        assert ladder.halted

    @pytest.mark.parametrize("reason", sorted(TERMINAL_REASONS, key=lambda r: r.name))
    def test_terminal_reasons_halt_and_stick(self, reason):
        ladder, clock = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder.degrade(reason)
            assert ladder.halted
            # Sticky: later degrades are no-ops, however late.
            clock.now += 1e9
            ladder.degrade(DegradationReason.WRITER_DEATH, "too late")
        assert ladder.halted
        assert ladder.reason is reason

    def test_note_incident_counts_without_moving_state(self):
        ladder, _ = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder.note_incident(DegradationReason.THREAD_ERROR, "shard 1")
            ladder.note_incident(DegradationReason.THREAD_ERROR)
        assert ladder.healthy  # incidents are absorbed faults
        report = ladder.report()
        assert report["incidents"] == {"THREAD_ERROR": 2}
        assert report["state"] == "sharded"

    def test_warnings_are_deduped_per_reason_per_interval(self):
        ladder, clock = self.make(warn_interval=300.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ladder.note_incident(DegradationReason.THREAD_ERROR, "shard 1 raised")
            ladder.note_incident(DegradationReason.THREAD_ERROR, "shard 2 raised")
            # A different reason warns independently.
            ladder.note_incident(DegradationReason.WRITER_DEATH)
            clock.now += 299.0
            ladder.note_incident(DegradationReason.THREAD_ERROR)
            clock.now += 1.0  # interval elapsed: warn again
            ladder.note_incident(DegradationReason.THREAD_ERROR)
        texts = [str(w.message) for w in caught]
        assert len(texts) == 3
        assert sum("THREAD_ERROR" in t for t in texts) == 2
        assert sum("WRITER_DEATH" in t for t in texts) == 1
        # Warnings carry the reason, the detail and a recovery hint.
        assert "shard 1 raised" in texts[0]
        assert "recomputed serially" in texts[0]

    def test_silent_reasons_never_warn(self):
        ladder, _ = self.make()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ladder.degrade(DegradationReason.SINGLE_WORKER)
        assert caught == []

    def test_transition_history_is_bounded(self):
        ladder, _ = self.make(history_limit=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(10):
                ladder.note_incident(DegradationReason.THREAD_ERROR)
        assert len(ladder.report()["transitions"]) == 4


# ----------------------------------------------------------------------
# FaultPlan grammar
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_full_spec_roundtrip(self):
        plan = FaultPlan.parse("shard=2,5;writer=1,4;seed=7")
        assert plan.shard_failures == {2, 5}
        assert plan.writer_kills == {1, 4}
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
            "writer=-1",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
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

    def test_malformed_result_timeout_env_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_TIMEOUT", "abc")
        with pytest.raises(ConfigError, match="REPRO_RESULT_TIMEOUT"):
            ShardedOracleExecutor(2)
        monkeypatch.setenv("REPRO_RESULT_TIMEOUT", "90")
        executor = ShardedOracleExecutor(2)
        assert executor.result_timeout == 90.0
        executor.close()

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
