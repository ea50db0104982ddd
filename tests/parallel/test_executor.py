"""Sharded executor: sharding math, pool lifecycle, fallback ladder."""

import os
import random
import warnings

import pytest

from repro.influence.oracle import InfluenceOracle
from repro.parallel.executor import (
    ShardedOracleExecutor,
    merge_shard_counts,
    shard_slices,
)
from repro.parallel.plane import shared_memory_available
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def build_graph(seed=17, num_nodes=50, num_events=260):
    rng = random.Random(seed)
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.25:
            t += 1
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, rng.randint(3, 60)))
    return graph


class TestShardingMath:
    def test_slices_partition_exactly(self):
        for n in (0, 1, 2, 7, 64, 100):
            for shards in (1, 2, 3, 5, 16):
                slices = shard_slices(n, shards)
                covered = [i for start, stop in slices for i in range(start, stop)]
                assert covered == list(range(n))
                assert all(stop > start for start, stop in slices)
                if slices:
                    sizes = [stop - start for start, stop in slices]
                    assert max(sizes) - min(sizes) <= 1

    def test_merge_restores_submission_order(self):
        slices = shard_slices(7, 3)
        shard_results = [list(range(start, stop)) for start, stop in slices]
        assert merge_shard_counts(slices, shard_results, 7) == list(range(7))

    def test_merge_rejects_short_shard(self):
        with pytest.raises(ValueError):
            merge_shard_counts([(0, 2)], [[1]], 2)


class TestSerialFallback:
    def test_workers_one_never_starts_a_pool(self):
        graph = build_graph()
        executor = ShardedOracleExecutor(1)
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == graph.csr().spread_counts(
            sets, None
        )
        assert executor._procs == []
        assert not executor.parallel_available
        executor.close()

    def test_small_batches_stay_serial(self):
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=10_000)
        sets = [[i] for i in range(graph.num_interned)]
        counts = executor.spread_counts(graph, sets)
        assert counts == graph.csr().spread_counts(sets, None)
        assert executor._procs == []  # pool never started: batch below floor
        executor.close()

    def test_narrow_ancestor_sweeps_stay_serial(self):
        """Reverse sweeps below the ancestor floor never start the pool."""
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
        ids = list(range(min(graph.num_interned, executor.ancestor_min_batch - 1)))
        assert executor.ancestor_ids(graph, ids) == graph.csr().ancestor_ids(
            ids, None
        )
        assert executor._procs == []
        executor.close()

    def test_closed_executor_serves_serially(self):
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS)
        executor.close()
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == graph.csr().spread_counts(
            sets, None
        )


@pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)
class TestPoolQueries:
    def test_spread_reach_and_ancestors_match_serial(self):
        graph = build_graph()
        serial = graph.csr()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1, ancestor_min_batch=1)
        try:
            ids = list(range(graph.num_interned))
            sets = [[i] for i in ids] + [ids[:3], ids[5:11]]
            horizon = graph.time + 8
            assert executor.spread_counts(graph, sets, horizon) == (
                serial.spread_counts(sets, horizon)
            )
            assert executor.spread_counts(graph, sets) == serial.spread_counts(
                sets, None
            )
            reached = executor.reachable_ids_many(graph, sets, horizon)
            assert reached == [serial.reachable_ids(s, horizon) for s in sets]
            assert executor.ancestor_ids(graph, ids[:9]) == serial.ancestor_ids(
                ids[:9], None
            )
            assert executor.touched_cone_ids(graph, ids[:9]) == (
                serial.touched_cone_ids(ids[:9])
            )
        finally:
            executor.close()

    def test_publishes_once_per_compaction(self):
        """Arrivals between compactions only grow the plane's log; the
        base is republished exactly when the engine compacts."""
        graph = build_graph()
        engine = graph.csr()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
        try:
            sets = [[i] for i in range(graph.num_interned)]
            first = executor.spread_counts(graph, sets)
            assert first == graph.csr().spread_counts(sets, None)
            plane = executor._plane
            generation = plane.generation
            # Same version: nothing to copy.
            executor.spread_counts(graph, sets)
            assert (plane.generation, plane.log_length) == (generation, 0)
            graph.advance_to(graph.time + 1)
            graph.add_interaction(Interaction("n0", "n1", graph.time, 30))
            second = executor.spread_counts(graph, sets)
            assert second == graph.csr().spread_counts(sets, None)
            assert plane.generation == generation
            assert plane.log_length == len(engine.arrival_log) == 1
            # Cross the compaction trigger: one new generation, empty log.
            compactions = engine.compactions
            rng = random.Random(5)
            for _ in range(engine.compact_trigger + 1):
                u, v = rng.sample(range(50), 2)
                graph.add_interaction(
                    Interaction(f"n{u}", f"n{v}", graph.time, rng.randint(3, 60))
                )
            third = executor.spread_counts(graph, sets)
            assert third == graph.csr().spread_counts(sets, None)
            assert engine.compactions == compactions + 1
            assert plane.generation == generation + 1
            assert plane.base is engine.base and plane.log_length == 0
        finally:
            executor.close()

    def test_worker_death_is_supervised_and_recovers(self):
        """Killing the whole pool no longer forfeits sharding forever:
        the supervisor recycles the pool (fresh queues — a worker killed
        inside Queue.get holds the reader lock), the interrupted request
        still gets exact results, and later requests run sharded again.
        Teardown afterwards must leak nothing."""
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
        prefix = None
        try:
            sets = [[i] for i in range(graph.num_interned)]
            expected = graph.csr().spread_counts(sets, None)
            assert executor.spread_counts(graph, sets) == expected
            prefix = executor._plane.prefix
            first_procs = list(executor._procs)
            for proc in first_procs:
                proc.terminate()
            for proc in first_procs:
                proc.join(timeout=10)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                after = executor.spread_counts(graph, sets)
            assert after == expected  # exact despite the mid-flight deaths
            report = executor.health_report()
            assert report["incidents"].get("WORKER_DEATH", 0) >= 1
            assert report["pool"]["restarts_used"] >= 1
            # The pool came back: sharded serving resumes (possibly after
            # one recovery step) and the respawned workers answer.
            assert executor.spread_counts(graph, sets) == expected
            assert executor.parallel_available
            assert executor.pool_running
            assert all(proc.is_alive() for proc in executor._procs)
        finally:
            executor.close()
        assert executor.degraded is not None  # closed is terminal
        if prefix is not None:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=f"{prefix}-hdr")


@pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)
class TestOracleIntegration:
    def test_shared_executor_across_oracles(self):
        graph = build_graph(seed=29)
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
        try:
            first = InfluenceOracle(graph, parallel=executor, max_cache_entries=0)
            second = InfluenceOracle(graph, parallel=executor, max_cache_entries=0)
            serial = InfluenceOracle(graph, max_cache_entries=0)
            nodes = sorted(graph.node_set(), key=repr)
            sets = [(n,) for n in nodes]
            assert first.spread_many(sets) == serial.spread_many(sets)
            assert second.spread_many(sets) == serial.spread_many(sets)
            # Shared executors are not closed by their oracles.
            first.close()
            assert executor.degraded is None
        finally:
            executor.close()

    def test_parallel_rejects_dict_backend(self):
        graph = build_graph(seed=31)
        with pytest.raises(ValueError):
            InfluenceOracle(graph, backend="dict", parallel=2)

    def test_parallel_one_is_serial(self):
        graph = build_graph(seed=31)
        oracle = InfluenceOracle(graph, parallel=1)
        assert oracle.executor is None
        assert oracle.workers == 1
        oracle.close()
