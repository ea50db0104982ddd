"""Sharded executor: sharding math, clone lifecycle, serial fallback,
shard failures."""

import os
import random
import warnings

import pytest

from repro.influence.oracle import InfluenceOracle
from repro.kernels import PLANE_WIDTH
from repro.parallel.executor import (
    ShardedOracleExecutor,
    merge_shard_counts,
    shard_slices,
)
from repro.parallel.faults import FaultPlan
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
        """Slices cover the items in order; every boundary but the last is
        a multiple of 64; there are min(workers, ceil(n / 64)) slices,
        whose chunk counts differ by at most one."""
        for n in (0, 1, 2, 7, 63, 64, 65, 100, 128, 129, 130, 200, 640, 1000):
            for shards in (1, 2, 3, 5, 16):
                slices = shard_slices(n, shards)
                covered = [i for start, stop in slices for i in range(start, stop)]
                assert covered == list(range(n))
                assert all(stop > start for start, stop in slices)
                chunks = -(-n // PLANE_WIDTH)
                assert len(slices) == min(shards, chunks)
                assert all(stop % PLANE_WIDTH == 0 for _, stop in slices[:-1])
                if slices:
                    counts = [
                        -(-(stop - start) // PLANE_WIDTH) for start, stop in slices
                    ]
                    assert max(counts) - min(counts) <= 1
                    assert sum(counts) == chunks

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
        assert not executor.pool_running
        assert executor.health_report()["state"] == "halted"
        executor.close()

    def test_small_batches_stay_serial(self):
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=10_000)
        sets = [[i] for i in range(graph.num_interned)]
        counts = executor.spread_counts(graph, sets)
        assert counts == graph.csr().spread_counts(sets, None)
        assert not executor.pool_running  # batch below floor
        executor.close()

    def test_narrow_ancestor_sweeps_stay_serial(self):
        """Reverse sweeps below the batch floor never start the pool."""
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=16)
        ids = list(range(min(graph.num_interned, executor.min_batch - 1)))
        assert executor.ancestor_ids(graph, ids) == graph.csr().ancestor_ids(
            ids, None
        )
        assert not executor.pool_running
        executor.close()

    def test_closed_executor_serves_serially(self):
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS)
        executor.close()
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == graph.csr().spread_counts(
            sets, None
        )


class TestPoolQueries:
    def test_spread_reach_and_ancestors_match_serial(self):
        graph = build_graph()
        serial = graph.csr()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
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
                serial.ancestor_ids(ids[:9], None)
            )
        finally:
            executor.close()

    def test_requests_shard_on_whole_planes(self, monkeypatch):
        """Under two workers a 24-set request is one shard (one sweep, as
        serial) and a 130-set request two; both match serial exactly."""
        graph = build_graph()
        run_shard = ShardedOracleExecutor._run_shard
        parts = []

        def counting(run, kernel, part, fail):
            parts.append(len(part))
            return run_shard(run, kernel, part, fail)

        monkeypatch.setattr(
            ShardedOracleExecutor, "_run_shard", staticmethod(counting)
        )
        executor = ShardedOracleExecutor(2)
        try:
            ids = list(range(graph.num_interned))
            sets = [[ids[i % len(ids)], ids[(3 * i) % len(ids)]] for i in range(130)]
            for size, shards in ((24, [24]), (130, [128, 2])):
                del parts[:]
                assert executor.spread_counts(graph, sets[:size]) == (
                    graph.csr().spread_counts(sets[:size], None)
                )
                assert parts == shards
        finally:
            executor.close()

    def test_clones_are_cut_once_per_graph_version(self):
        """Requests at one graph version share one set of kernel clones;
        any mutation cuts a fresh set, and results track the graph."""
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
        try:
            sets = [[i] for i in range(graph.num_interned)]
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            clones = executor.ensure_plane(graph)
            cuts = executor.health_report()["plane_generation"]
            assert len(clones) == WORKERS
            executor.spread_counts(graph, sets)
            assert executor.ensure_plane(graph) is clones
            assert executor.health_report()["plane_generation"] == cuts
            graph.advance_to(graph.time + 1)
            graph.add_interaction(Interaction("n0", "n1", graph.time, 30))
            assert executor.spread_counts(graph, sets) == (
                graph.csr().spread_counts(sets, None)
            )
            assert executor.ensure_plane(graph) is not clones
            assert executor.health_report()["plane_generation"] == cuts + 1
            # Reverse sweeps keep their own clones over the transpose.
            ids = list(range(graph.num_interned))
            assert executor.ancestor_ids(graph, ids) == (
                graph.csr().ancestor_ids(ids, None)
            )
            assert executor.health_report()["plane_generation"] == cuts + 2
        finally:
            executor.close()

    def test_worker_death_is_supervised_and_recovers(self):
        """A shard that dies on its thread is recorded and answered
        serially; the same pool threads serve the next request sharded."""
        graph = build_graph()
        executor = ShardedOracleExecutor(
            WORKERS, min_batch=1, fault_plan=FaultPlan.parse("shard=1")
        )
        sets = [[i] for i in range(graph.num_interned)]
        expected = graph.csr().spread_counts(sets, None)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert executor.spread_counts(graph, sets) == expected
            report = executor.health_report()
            assert report["state"] == "sharded"
            assert report["incidents"] == {"THREAD_ERROR": 1}
            assert any("FaultInjected" in str(w.message) for w in caught)
            threads = set(executor._pool._threads)
            assert threads and all(thread.is_alive() for thread in threads)
            generation = report["plane_generation"]
            assert executor.spread_counts(graph, sets) == expected
            assert executor.pool_running
            assert threads <= set(executor._pool._threads)  # none replaced
            report = executor.health_report()
            assert report["incidents"] == {"THREAD_ERROR": 1}
            # The failed request's clones were dropped and cut afresh.
            assert report["plane_generation"] == generation + 1
        finally:
            executor.close()


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
