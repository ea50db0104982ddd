"""Unit tests for the supervision layer: ladder, supervisor, fault plans.

The chaos suite (:mod:`tests.parallel.test_faults`) exercises these
components through real worker processes; this module pins their contracts
in isolation — injected clocks instead of sleeps, fake processes instead
of ``multiprocessing`` — so every edge (backoff windows, budget
arithmetic, warning dedupe, teardown idempotency) is deterministic.
"""

import gc
import random
import warnings

import pytest

from repro.parallel.degradation import (
    TERMINAL_REASONS,
    DegradationLadder,
    DegradationReason,
    DegradationState,
)
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.faults import FaultPlan, WorkerFaults
from repro.parallel.plane import SharedCSRPlane, shared_memory_available
from repro.parallel.supervisor import QUARANTINE_STRIKES, WorkerSupervisor
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
        assert not ladder.can_attempt_recovery()

    def test_recoverable_degrade_then_recover(self):
        ladder, clock = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder.degrade(
                DegradationReason.PUBLISH_FAILED, "disk full", retry_delay=5.0
            )
        assert ladder.state is DegradationState.DEGRADED
        assert not ladder.healthy and not ladder.halted
        assert not ladder.can_attempt_recovery()  # backoff pending
        clock.now += 5.0
        assert ladder.can_attempt_recovery()
        ladder.recover("publish succeeded")
        assert ladder.healthy
        assert ladder.reason is None and ladder.detail == ""
        assert ladder.recoveries == 1

    @pytest.mark.parametrize("reason", sorted(TERMINAL_REASONS, key=lambda r: r.name))
    def test_terminal_reasons_halt_and_stick(self, reason):
        ladder, clock = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder.degrade(reason)
            assert ladder.halted
            # Sticky: later degrades and recovers are no-ops.
            ladder.degrade(DegradationReason.WORKER_DEATH, "too late")
        assert ladder.reason is reason
        ladder.recover()
        assert ladder.halted
        clock.now += 1e9
        assert not ladder.can_attempt_recovery()

    def test_note_incident_counts_without_moving_state(self):
        ladder, _ = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ladder.note_incident(DegradationReason.TASK_TIMEOUT, "slow shard")
            ladder.note_incident(DegradationReason.TASK_TIMEOUT)
        assert ladder.healthy  # incidents are absorbed faults
        report = ladder.report()
        assert report["incidents"] == {"TASK_TIMEOUT": 2}
        assert report["state"] == "sharded"

    def test_warnings_are_deduped_per_reason_per_interval(self):
        ladder, clock = self.make(warn_interval=300.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ladder.note_incident(DegradationReason.WORKER_DEATH, "w0 died")
            ladder.note_incident(DegradationReason.WORKER_DEATH, "w0 died again")
            # A different reason warns independently.
            ladder.note_incident(DegradationReason.TASK_TIMEOUT)
            clock.now += 299.0
            ladder.note_incident(DegradationReason.WORKER_DEATH)
            clock.now += 1.0  # interval elapsed: warn again
            ladder.note_incident(DegradationReason.WORKER_DEATH)
        texts = [str(w.message) for w in caught]
        assert len(texts) == 3
        assert sum("WORKER_DEATH" in t for t in texts) == 2
        assert sum("TASK_TIMEOUT" in t for t in texts) == 1
        # Warnings carry the reason, the detail and a recovery hint.
        assert "w0 died" in texts[0]
        assert "respawned within the restart budget" in texts[0]

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
                ladder.note_incident(DegradationReason.WORKER_ERROR)
        assert len(ladder.report()["transitions"]) == 4


# ----------------------------------------------------------------------
# WorkerSupervisor
# ----------------------------------------------------------------------
class FakeProc:
    def __init__(self, index, events):
        self.index = index
        self.alive = True
        self._events = events

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.alive = False
        self._events.append(("terminate", self.index))

    def join(self, timeout=None):
        self._events.append(("join", self.index))


class TestWorkerSupervisor:
    def make(self, workers=2, **kwargs):
        events = []
        clock = Clock()

        def spawn(index):
            events.append(("spawn", index))
            return FakeProc(index, events)

        def reset():
            events.append(("reset",))

        kwargs.setdefault("seed", 11)
        supervisor = WorkerSupervisor(
            spawn, workers, clock=clock, reset=reset, **kwargs
        )
        return supervisor, events, clock

    def test_start_spawns_the_pool_without_charging_budget(self):
        supervisor, events, _ = self.make()
        supervisor.start()
        assert events == [("spawn", 0), ("spawn", 1)]
        assert supervisor.restarts_used == 0
        assert supervisor.all_alive()
        assert supervisor.respawn_dead() == "ok"  # nothing dead: no-op
        assert events == [("spawn", 0), ("spawn", 1)]

    def test_respawn_recycles_whole_pool_charging_only_the_dead(self):
        supervisor, events, _ = self.make()
        supervisor.start()
        first = dict(supervisor.procs)
        first[0].alive = False
        assert supervisor.dead_workers() == [0]
        events.clear()
        assert supervisor.respawn_dead() == "ok"
        # Survivors are terminated for queue hygiene, the reset hook runs
        # between teardown and respawn, and only the dead are charged.
        assert events == [
            ("terminate", 1),
            ("join", 0),
            ("join", 1),
            ("reset",),
            ("spawn", 0),
            ("spawn", 1),
        ]
        assert supervisor.restarts_used == 1
        assert supervisor.all_alive()
        assert supervisor.procs[0] is not first[0]
        assert supervisor.procs[1] is not first[1]  # recycled too

    def test_backoff_window_defers_then_allows_respawn(self):
        supervisor, _, clock = self.make(backoff_base=0.5, backoff_cap=8.0)
        supervisor.start()
        supervisor.procs[0].alive = False
        assert supervisor.respawn_dead() == "ok"
        # The fresh incarnation dies immediately: inside the window.
        supervisor.procs[0].alive = False
        assert supervisor.respawn_dead() == "waiting"
        assert supervisor.restarts_used == 1  # waiting charges nothing
        clock.now += 8.0 * 1.5  # past any jittered delay
        assert supervisor.respawn_dead() == "ok"
        assert supervisor.restarts_used == 2

    def test_note_success_resets_the_backoff_ramp(self):
        supervisor, _, _ = self.make(backoff_base=1.0, backoff_cap=60.0)
        supervisor.start()
        supervisor.procs[0].alive = False
        assert supervisor.respawn_dead() == "ok"
        supervisor.note_success()  # a clean round-trip heals the ramp
        supervisor.procs[1].alive = False
        assert supervisor.respawn_dead() == "ok"  # no waiting window

    def test_budget_exhaustion_is_detected_before_spending(self):
        supervisor, events, _ = self.make(restart_budget=1)
        supervisor.start()
        for proc in supervisor.procs.values():
            proc.alive = False
        events.clear()
        # Two dead, budget one: refuse without partial respawn.
        assert supervisor.respawn_dead() == "exhausted"
        assert supervisor.restarts_used == 0
        assert events == []

    def test_jitter_is_deterministic_per_seed(self):
        first, _, _ = self.make(seed=23)
        second, _, _ = self.make(seed=23)
        for supervisor in (first, second):
            supervisor.start()
            supervisor.procs[0].alive = False
            supervisor.respawn_dead()
        assert first._respawn_at == second._respawn_at

    def test_strikes_quarantine_after_two_deaths(self):
        supervisor, _, _ = self.make()
        key = ("spread", "[[1], [2]]", 5.0)
        assert supervisor.strike(key) == 1
        assert not supervisor.is_quarantined(key)
        assert supervisor.strike(key) == QUARANTINE_STRIKES
        assert supervisor.is_quarantined(key)
        assert not supervisor.is_quarantined(("other", "[]", 0.0))
        assert supervisor.report()["quarantined_tasks"] == 1

    def test_report_reflects_liveness(self):
        supervisor, _, _ = self.make(restart_budget=7)
        supervisor.start()
        supervisor.procs[1].alive = False
        assert supervisor.report() == {
            "workers": 2,
            "alive": 1,
            "restarts_used": 0,
            "restart_budget": 7,
            "quarantined_tasks": 0,
        }


# ----------------------------------------------------------------------
# FaultPlan grammar
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_full_spec_roundtrip(self):
        plan = FaultPlan.parse(
            "kill=w0:2,w1:1;delay=w1:3:0.5;drop=w0:1;attach=w1:1;"
            "publish=2;writer=1,4;seed=7"
        )
        assert plan.kills == {0: {2}, 1: {1}}
        assert plan.delays == {1: {3: 0.5}}
        assert plan.drops == {0: {1}}
        assert plan.attach_failures == {1: {1}}
        assert plan.publish_failures == {2}
        assert plan.writer_kills == {1, 4}
        assert plan.seed == 7

    def test_empty_and_whitespace_entries_are_ignored(self):
        plan = FaultPlan.parse(" kill=w0:1 ; ;; seed=3 ")
        assert plan.kills == {0: {1}}
        assert plan.seed == 3

    @pytest.mark.parametrize(
        "spec",
        [
            "kill=x0:1",  # bad site
            "kill=w0:0",  # ordinals are 1-based
            "kill=w0:abc",
            "delay=w0:1",  # missing seconds
            "publish=zero",
            "frobnicate=w0:1",  # unknown kind
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
        monkeypatch.setenv("REPRO_FAULTS", "kill=w1:2")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.kills == {1: {2}}

    def test_for_worker_is_none_for_untouched_workers(self):
        plan = FaultPlan.parse("kill=w0:1;delay=w2:1:0.1")
        assert plan.for_worker(1) is None
        faults = plan.for_worker(0)
        assert faults is not None and faults.kill_at == frozenset({1})

    def test_publish_counter_fires_exactly_at_its_ordinal(self):
        plan = FaultPlan.parse("publish=2")
        assert [plan.next_publish_fails() for _ in range(4)] == [
            False,
            True,
            False,
            False,
        ]

    def test_worker_faults_count_per_incarnation(self):
        faults = WorkerFaults(
            kill_at=frozenset({2}),
            delay_at={3: 0.25},
            drop_at=frozenset({1}),
            attach_fail_at=frozenset({1}),
        )
        assert faults.next_task() == 1
        assert faults.should_drop(1) and not faults.should_kill(1)
        assert faults.next_task() == 2
        assert faults.should_kill(2)
        assert faults.delay_for(faults.next_task()) == 0.25
        assert faults.next_attach_fails()  # attach #1 raises
        assert not faults.next_attach_fails()
        # A respawned incarnation gets a fresh schedule object, so the
        # same ordinals re-fire (what the quarantine machinery relies on).
        fresh = WorkerFaults(kill_at=frozenset({2}))
        assert fresh.next_task() == 1


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

    @pytest.mark.skipif(
        not shared_memory_available(), reason="POSIX shared memory unavailable"
    )
    def test_double_close_with_live_pool(self):
        from multiprocessing import shared_memory

        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )
        prefix = executor._plane.prefix
        executor.close()
        executor.close()  # second close: clean no-op
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=f"{prefix}-hdr")
        # A closed executor still serves (serially, exactly).
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )

    @pytest.mark.skipif(
        not shared_memory_available(), reason="POSIX shared memory unavailable"
    )
    def test_finalizer_and_close_do_not_race(self):
        """close() then collection: the finalizer must not double-free."""
        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        sets = [[i] for i in range(graph.num_interned)]
        executor.spread_counts(graph, sets)
        executor.close()
        del executor
        gc.collect()  # the detached finalizer must be a no-op

    @pytest.mark.skipif(
        not shared_memory_available(), reason="POSIX shared memory unavailable"
    )
    def test_abandoned_executor_is_collected_cleanly(self):
        from multiprocessing import shared_memory

        graph = tiny_graph()
        executor = ShardedOracleExecutor(2, min_batch=1)
        sets = [[i] for i in range(graph.num_interned)]
        executor.spread_counts(graph, sets)
        prefix = executor._plane.prefix
        del executor
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=f"{prefix}-hdr")

    @pytest.mark.skipif(
        not shared_memory_available(), reason="POSIX shared memory unavailable"
    )
    def test_plane_double_close(self):
        plane = SharedCSRPlane()
        plane.publish(tiny_graph().csr())
        plane.close()
        plane.close()
        with pytest.raises(RuntimeError):
            plane.publish(tiny_graph().csr())
