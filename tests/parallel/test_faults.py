"""Chaos suite: seeded fault plans against the supervised parallel stack.

Every scenario drives real worker processes (or the real ingest writer)
through a deterministic :class:`~repro.parallel.faults.FaultPlan` and
pins the robustness contract:

* results are **bit-identical to serial** under every fault — recovery
  changes *where* a value is computed, never what it is;
* the executor **recovers to sharded mode** when the fault clears
  (worker kills are respawned, publish failures retried);
* the ingest service **never serves an unapplied epoch** — writer death
  replays the journal exactly once and ``top_k`` flags staleness;
* teardown after chaos **leaks no shared-memory segments**.

The CI chaos job runs this module across a seed matrix via
``REPRO_CHAOS_SEED``; the seed feeds the supervisor's backoff jitter and
the synthetic streams, so a failing combination replays exactly.
"""

import asyncio
import os
import random
import time
import warnings

import pytest

from repro.core.tracker import InfluenceTracker
from repro.influence.oracle import InfluenceOracle
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.faults import FaultPlan
from repro.parallel.plane import shared_memory_available
from repro.parallel.service import IngestService
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import GeometricLifetime

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "3"))

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


def plan(spec: str) -> FaultPlan:
    return FaultPlan.parse(f"{spec};seed={SEED}")


def build_graph(seed=None, num_nodes=40, num_events=160):
    rng = random.Random(SEED if seed is None else seed)
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.3:
            t += 1
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, rng.randint(5, 60)))
    return graph


#: Wall-clock bound on waiting for a worker-0 fault to fire.  Shards go
#: through one shared queue, so on a small host worker 1 can drain every
#: shard of many requests in a row before worker 0 claims its first.
FAULT_DEADLINE_S = 20.0


def dispatch_until_fired(executor, graph, fired) -> bool:
    """Send exact-checked requests until ``fired(health report)`` holds.

    Returns False when :data:`FAULT_DEADLINE_S` passes first.  Payloads
    rotate through the graph's ids; none repeats before the fault fires
    unless the deadline allows more rounds than there are windows.
    """
    ids = list(range(graph.num_interned))
    windows = max(1, len(ids) - 9)
    deadline = time.monotonic() + FAULT_DEADLINE_S
    round_no = 0
    while time.monotonic() < deadline:
        start = round_no % windows
        sets = [[i] for i in ids[start : start + 10]]
        assert executor.spread_counts(graph, sets) == (
            graph.csr().spread_counts(sets, None)
        )
        if fired(executor.health_report()):
            return True
        round_no += 1
    return False


def assert_no_shm_leak(prefix):
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=f"{prefix}-hdr")


@pytest.fixture(autouse=True)
def quiet_degradation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestExecutorChaos:
    def test_worker_kill_mid_spread_recovers_and_stays_exact(self):
        """Every incarnation of worker 0 dies on its first task; requests
        keep answering exactly and the supervisor keeps restoring the
        pool within budget."""
        graph = build_graph()
        executor = ShardedOracleExecutor(
            2, min_batch=1, fault_plan=plan("kill=w0:1")
        )
        prefix = None
        try:
            # Stops at the first death, so strikes cannot accumulate into
            # a quarantine here (that scenario is below).
            saw_death = dispatch_until_fired(
                executor,
                graph,
                lambda report: report["incidents"].get("WORKER_DEATH", 0) >= 1,
            )
            assert saw_death, "fault plan never fired (worker 0 got no task)"
            report = executor.health_report()
            assert report["state"] == "sharded"  # absorbed, not degraded
            assert report["pool"]["restarts_used"] >= 1
            # w1 never dies; the fresh w0 incarnation may already have
            # died again, so only the survivor floor is deterministic.
            assert report["pool"]["alive"] >= 1
            prefix = executor._plane.prefix
        finally:
            executor.close()
        if prefix is not None:
            assert_no_shm_leak(prefix)

    def test_poisoned_task_is_quarantined_after_two_kills(self):
        """A task that kills two worker incarnations runs serially,
        is flagged in the health report, and never re-enters the pool."""
        graph = build_graph(seed=SEED + 1)
        executor = ShardedOracleExecutor(
            2, min_batch=1, fault_plan=plan("kill=w0:1,w1:1")
        )
        prefix = None
        try:
            poison = [list(range(min(12, graph.num_interned)))]  # one shard
            expected = graph.csr().spread_counts(poison, None)
            assert executor.spread_counts(graph, poison) == expected
            report = executor.health_report()
            assert report["pool"]["quarantined_tasks"] == 1
            assert report["incidents"].get("WORKER_DEATH", 0) >= 1
            # The second death may still be inside the respawn backoff
            # when the request completes, so only the first recycle is a
            # deterministic charge.
            restarts = report["pool"]["restarts_used"]
            assert restarts >= 1
            # Replaying the poisoned task is served from quarantine:
            # exact, serial, and no further worker is sacrificed to it.
            assert executor.spread_counts(graph, poison) == expected
            assert (
                executor.health_report()["pool"]["restarts_used"] == restarts
            )
            prefix = executor._plane.prefix
        finally:
            executor.close()
        if prefix is not None:
            assert_no_shm_leak(prefix)

    def test_attach_failures_are_retried_transparently(self):
        """Each worker's first plane attach raises; the shards are
        retried and the request never diverges from serial."""
        graph = build_graph(seed=SEED + 2)
        executor = ShardedOracleExecutor(
            2, min_batch=1, fault_plan=plan("attach=w0:1,w1:1")
        )
        try:
            ids = list(range(graph.num_interned))
            for round_no in range(3):
                sets = [[i] for i in ids[round_no : round_no + 12]]
                assert executor.spread_counts(graph, sets) == (
                    graph.csr().spread_counts(sets, None)
                )
            assert executor.parallel_available
        finally:
            executor.close()

    def test_delayed_shard_misses_deadline_then_serial_fallback(self):
        """Both workers sleep through their first task's deadline twice;
        the shards fall back to serial for that request only and the
        pool serves the next request normally."""
        graph = build_graph(seed=SEED + 3)
        executor = ShardedOracleExecutor(
            2,
            min_batch=1,
            task_timeout=0.15,
            fault_plan=plan("delay=w0:1:0.8,w1:1:0.8"),
        )
        try:
            ids = list(range(graph.num_interned))
            sets = [[i] for i in ids[:10]]
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            report = executor.health_report()
            assert report["state"] == "sharded"
            assert report["incidents"].get("TASK_TIMEOUT", 0) >= 1
            # Ordinal 1 is past on both workers: the pool answers again.
            later = [[i] for i in ids[10:22]]
            assert executor.spread_counts(graph, later) == (
                graph.csr().spread_counts(later, None)
            )
        finally:
            executor.close()

    def test_dropped_task_is_retried(self):
        """A silently-dropped task message (no ack, no reply) is caught
        by its deadline and retried; results stay exact."""
        graph = build_graph(seed=SEED + 4)
        executor = ShardedOracleExecutor(
            2, min_batch=1, task_timeout=0.2, fault_plan=plan("drop=w0:1")
        )
        try:
            ids = list(range(graph.num_interned))
            for round_no in range(3):
                sets = [[i] for i in ids[round_no : round_no + 10]]
                assert executor.spread_counts(graph, sets) == (
                    graph.csr().spread_counts(sets, None)
                )
            assert executor.parallel_available
        finally:
            executor.close()

    def test_publish_failure_degrades_then_recovers(self):
        """A failed plane publish serves the request serially, leaves a
        recoverable DEGRADED state, and the next eligible request
        republishes and returns to SHARDED.  Log appends between
        compactions are not publishes and never trip the fault."""
        graph = build_graph(seed=SEED + 5)
        executor = ShardedOracleExecutor(
            2, min_batch=1, fault_plan=plan("publish=2")
        )
        prefix = None
        try:
            ids = list(range(graph.num_interned))
            sets = [[i] for i in ids[:12]]
            # Publish 1 succeeds: sharded.
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            assert executor.health_report()["state"] == "sharded"
            prefix = executor._plane.prefix
            # One arrival is a log append, not a publish: still sharded.
            graph.advance_to(graph.time + 1)
            graph.add_interaction(Interaction("n0", "n1", graph.time, 40))
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            report = executor.health_report()
            assert (report["state"], report["plane_generation"]) == ("sharded", 1)
            # Cross the compaction trigger so the next request must
            # republish the base; publish 2 is the injected failure.
            rng = random.Random(SEED)
            for _ in range(graph.csr().compact_trigger + 1):
                u, v = rng.sample(range(40), 2)
                graph.add_interaction(
                    Interaction(f"n{u}", f"n{v}", graph.time, rng.randint(5, 60))
                )
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            report = executor.health_report()
            assert report["state"] == "degraded"
            assert report["reason"] == "PUBLISH_FAILED"
            # After the retry backoff, publish 3 succeeds: recovered.
            time.sleep(0.06)
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            report = executor.health_report()
            assert report["state"] == "sharded"
            assert report["recoveries"] >= 1
            assert report["incidents"].get("PUBLISH_FAILED", 0) >= 1
        finally:
            executor.close()
        if prefix is not None:
            assert_no_shm_leak(prefix)

    def test_restart_budget_exhaustion_halts_permanently(self):
        """When the budget cannot cover another death the executor halts:
        terminal state, resources released, requests still exact."""
        graph = build_graph(seed=SEED + 6)
        prefix = f"rpx-halt{SEED}"  # fixed: the halt releases the plane
        executor = ShardedOracleExecutor(
            2,
            min_batch=1,
            restart_budget=0,
            plane_prefix=prefix,
            fault_plan=plan("kill=w0:1"),
        )
        try:
            halted = dispatch_until_fired(
                executor, graph, lambda report: report["state"] == "halted"
            )
            assert halted, "fault plan never fired (worker 0 got no task)"
            report = executor.health_report()
            assert report["state"] == "halted"
            assert report["reason"] == "RESTART_BUDGET_EXHAUSTED"
            # Halted is sticky and still serves exactly (serially).
            sets = [[i] for i in range(10)]
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
        finally:
            executor.close()
        if prefix is not None:
            assert_no_shm_leak(prefix)  # halt released the plane


class TestTrackerChaos:
    def stream(self, num_nodes=30, num_steps=16, per_step=4, max_l=25):
        rng = random.Random(SEED)
        policy = GeometricLifetime(0.08, max_l, seed=SEED + 1)
        batches = []
        for t in range(num_steps):
            batch = []
            for _ in range(rng.randint(1, per_step)):
                u, v = rng.sample(range(num_nodes), 2)
                batch.append(policy.assign(Interaction(f"n{u}", f"n{v}", t)))
            batches.append((t, batch))
        return batches

    def replay(self, name, batches, oracle_factory):
        from repro.core.basic_reduction import BasicReduction
        from repro.core.hist_approx import HistApprox
        from repro.core.sieve_adn import SieveADN

        graph = TDNGraph()
        oracle = oracle_factory(graph)
        algorithm = {
            "sieve-adn": lambda: SieveADN(4, 0.25, graph, oracle),
            "basic-reduction": lambda: BasicReduction(3, 0.3, 25, graph, oracle),
            "hist-approx": lambda: HistApprox(3, 0.3, graph, oracle),
        }[name]()
        trace = []
        for t, batch in batches:
            graph.advance_to(t)
            for interaction in batch:
                graph.add_interaction(interaction)
            algorithm.on_batch(t, batch)
            solution = algorithm.query()
            trace.append((tuple(solution.nodes), solution.value, oracle.calls))
        return trace

    @pytest.mark.parametrize(
        "name", ["sieve-adn", "basic-reduction", "hist-approx"]
    )
    def test_trackers_bit_identical_under_env_fault_plan(self, name, monkeypatch):
        """All three trackers replay bit-identically to serial while the
        ``REPRO_FAULTS`` plan kills, delays and fails attaches under
        them (the acceptance bar of the robustness tentpole)."""
        batches = self.stream()
        serial_trace = self.replay(name, batches, lambda g: InfluenceOracle(g))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"kill=w0:5;delay=w1:3:0.05;attach=w0:1;seed={SEED}",
        )
        executor = ShardedOracleExecutor(2, min_batch=1, restart_budget=6)
        prefix = None
        try:
            chaos_trace = self.replay(
                name, batches, lambda g: InfluenceOracle(g, parallel=executor)
            )
            if executor._plane is not None:
                prefix = executor._plane.prefix
        finally:
            executor.close()
        assert chaos_trace == serial_trace
        if prefix is not None:
            assert_no_shm_leak(prefix)


class TestIngestChaos:
    def make_tracker(self, **kwargs):
        return InfluenceTracker(
            "sieve-adn",
            k=3,
            epsilon=0.3,
            lifetime_policy=GeometricLifetime(0.05, 60, seed=SEED),
            **kwargs,
        )

    def batches(self, count=6):
        rng = random.Random(SEED + 9)
        return [
            (
                t,
                [
                    (f"u{rng.randrange(6)}", f"v{rng.randrange(9)}", None),
                    (f"v{rng.randrange(9)}", f"w{rng.randrange(4)}", None),
                ],
            )
            for t in range(count)
        ]

    def test_writer_death_replays_journal_exactly_once(self):
        """The writer dies before applying batch 2; the restarted writer
        replays the journal and the final state matches direct stepping
        — no batch lost, none double-applied."""
        batches = self.batches()

        async def run():
            tracker = self.make_tracker()
            service = IngestService(tracker, fault_plan=plan("writer=2"))
            await service.start()
            for t, batch in batches:
                await service.submit(t, batch)
            answer = await service.drain()
            health = service.health()
            await service.close()
            return answer, health

        answer, health = asyncio.run(run())
        reference = self.make_tracker()
        for t, batch in batches:
            solution = reference.step(t, batch)
        assert answer.epoch == len(batches)
        assert answer.nodes == tuple(solution.nodes)
        assert answer.value == float(solution.value)
        assert not answer.stale and answer.lag == 0
        assert health["writer_restarts"] == 1
        assert health["incidents"].get("WRITER_DEATH", 0) >= 1
        assert health["journal_depth"] == 0

    def test_writer_budget_exhaustion_serves_stale_topk(self):
        """With no restart budget the first writer death poisons the
        service — but ``top_k`` still answers from the last consistent
        epoch, flagged stale with the unapplied count."""

        async def run():
            tracker = self.make_tracker()
            service = IngestService(
                tracker,
                writer_restart_budget=0,
                fault_plan=plan("writer=1"),
            )
            await service.start()
            await service.submit(0, [("a", "b", None)])
            with pytest.raises(RuntimeError, match="ingest consumer failed"):
                await service.drain()
            answer = await service.top_k()
            health = service.health()
            with pytest.raises(RuntimeError):
                await service.close()
            return answer, health

        answer, health = asyncio.run(run())
        assert answer.epoch == 0  # the unapplied epoch was never served
        assert answer.stale and answer.lag == 1
        assert health["state"] == "degraded"
        assert health["journal_depth"] == 1  # still journaled, never applied
        assert health["failure"] is not None
