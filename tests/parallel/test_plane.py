"""The executor's plane: per-thread kernel clones and their lifecycle.

:meth:`ShardedOracleExecutor.ensure_plane` cuts one
:meth:`DeltaCSR.kernel_clone` per shard thread for the graph's current
version and sweep direction.  The clones share the engine's arrays and
overlay and own their visited buffers.  These tests pin them
bit-identical to the serial engine, and pin their lifecycle: one cut per
graph version, never served for another graph or version, released on
close.
"""

import random

import pytest

from repro.parallel.executor import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

WORKERS = 2


def build_graph(seed=11, num_nodes=40, num_events=200):
    rng = random.Random(seed)
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.2:
            t += 1
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < 0.1 else rng.randint(1, 40)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return graph


@pytest.fixture
def executor():
    executor = ShardedOracleExecutor(WORKERS, min_batch=1)
    yield executor
    executor.close()


class TestPublishAttach:
    def test_round_trip_matches_serial_engine(self, executor):
        graph = build_graph()
        serial = graph.csr()
        forward = executor.ensure_plane(graph)
        reverse = executor.ensure_plane(graph, reverse=True)
        assert len(forward) == len(reverse) == WORKERS
        eff = float(graph.time + 1)
        ids = list(range(graph.num_interned))
        sets = [(i,) for i in ids[:30]]
        for clone, reverse_clone in zip(forward, reverse):
            for seeds in ([ids[0]], ids[:5], ids[3:9]):
                assert clone.reachable_ids(seeds, eff) == serial.reachable_ids(
                    seeds, None
                )
                assert reverse_clone.reachable_ids(
                    seeds, eff
                ) == serial.ancestor_ids(seeds, None)
            assert clone.spread_counts(sets, eff) == serial.spread_counts(
                sets, None
            )

    def test_generation_bumps_and_supersedes(self, executor):
        graph = build_graph()
        first = executor.ensure_plane(graph)
        generation = executor.health_report()["plane_generation"]
        a, b = graph.node_id("n0"), graph.node_id("n1")
        graph.advance_to(graph.time + 1)
        graph.add_interaction(Interaction("n0", "n1", graph.time, 10))
        second = executor.ensure_plane(graph)
        assert executor.health_report()["plane_generation"] == generation + 1
        assert all(new is not old for new, old in zip(second, first))
        # The superseded cut is never handed out again.
        assert executor.ensure_plane(graph) is second
        eff = float(graph.time + 1)
        for clone in second:
            assert b in clone.reachable_ids([a], eff)
            assert clone.reachable_ids([a], eff) == graph.csr().reachable_ids(
                [a], None
            )

    def test_generation_skew_is_detected(self, executor):
        """Clones cut for one graph never serve a look-alike graph at the
        same version, and clones of an older version never serve a newer
        one."""
        graph = build_graph()
        twin = build_graph()
        assert twin.version == graph.version
        clones = executor.ensure_plane(graph)
        generation = executor.health_report()["plane_generation"]
        twin_clones = executor.ensure_plane(twin)
        assert twin_clones is not clones
        assert executor.health_report()["plane_generation"] == generation + 1
        assert all(clone.indptr is twin.csr().base.indptr for clone in twin_clones)
        twin.advance_to(twin.time + 1)
        twin.add_interaction(Interaction("n2", "n3", twin.time, 10))
        assert executor.ensure_plane(twin) is not twin_clones
        assert executor.health_report()["plane_generation"] == generation + 2

    def test_close_unlinks_everything(self):
        """close() releases every clone and stops every shard thread; a
        second close is a no-op."""
        graph = build_graph()
        executor = ShardedOracleExecutor(WORKERS, min_batch=1)
        ids = list(range(graph.num_interned))
        executor.spread_counts(graph, [(i,) for i in ids])
        executor.ancestor_ids(graph, ids)
        assert sorted(executor._clones) == [False, True]
        threads = list(executor._pool._threads)
        executor.close()
        executor.close()  # idempotent
        assert executor._clones == {}
        assert threads and not any(thread.is_alive() for thread in threads)
        # A closed executor answers serially and never cuts clones again.
        generation = executor.health_report()["plane_generation"]
        assert executor.spread_counts(
            graph, [(i,) for i in ids]
        ) == graph.csr().spread_counts([(i,) for i in ids], None)
        assert executor.health_report()["plane_generation"] == generation

    def test_empty_graph_publishes(self, executor):
        graph = TDNGraph()
        clones = executor.ensure_plane(graph)
        assert len(clones) == WORKERS
        for clone in clones:
            assert clone.num_nodes == 0
            assert clone.spread_counts([], 1.0) == []
        assert executor.spread_counts(graph, []) == []


class TestPlaneEngine:
    def test_in_process_engine_matches_delta_csr(self):
        """A kernel clone is pure over the engine's arrays — no executor
        required."""
        graph = build_graph(seed=23)
        serial = graph.csr()
        clone = serial.kernel_clone()
        eff = float(graph.time + 1)
        ids = list(range(graph.num_interned))
        horizon = graph.time + 12
        assert clone.spread_counts(
            [(i,) for i in ids], max(float(horizon), eff)
        ) == serial.spread_counts([(i,) for i in ids], horizon)
        assert clone.reachable_ids(ids[:4], eff) == serial.reachable_ids(
            ids[:4], None
        )

    def test_out_of_range_ids_rejected(self):
        graph = build_graph(seed=5)
        clone = graph.csr().kernel_clone()
        eff = float(graph.time + 1)
        with pytest.raises(IndexError):
            clone.reachable_ids([graph.num_interned + 3], eff)
        with pytest.raises(IndexError):
            clone.spread_counts([(-1,)], eff)
