"""Thread executor: equivalence, configuration surface, fault fallback.

Shards run over per-thread kernel clones of the same in-process arrays,
so there is no spawn, no copy of the graph and no pickling.  The
correctness bar is bit-identical to serial on every surface, under the
*python* backend as well as the native one, which is what lets this
whole file run without numba.
"""

import multiprocessing
import random
import warnings

import numpy as np
import pytest

from repro.kernels import resolve_fold
from repro.parallel.executor import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

WORKERS = 3


def build_graph(seed=17, num_nodes=60, num_events=400):
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


@pytest.fixture
def threaded():
    executor = ShardedOracleExecutor(WORKERS)
    yield executor
    executor.close()


class TestModeResolution:
    def test_invalid_mode_rejected(self):
        # Threads are the only sharded mode; there is nothing to select.
        with pytest.raises(TypeError):
            ShardedOracleExecutor(2, mode="processes")

    def test_forced_threads_reported_in_health(self, threaded):
        graph = build_graph()
        sets = [[i] for i in range(graph.num_interned)]
        threaded.spread_counts(graph, sets)
        report = threaded.health_report()
        assert report["mode"] == "threads"
        assert report["state"] == "sharded"

    def test_threads_never_start_processes(self, threaded):
        graph = build_graph()
        sets = [[i] for i in range(graph.num_interned)]
        threaded.spread_counts(graph, sets)
        assert threaded.pool_running
        assert multiprocessing.active_children() == []

    def test_single_worker_degrades_serially(self):
        executor = ShardedOracleExecutor(1)
        graph = build_graph()
        sets = [[i] for i in range(graph.num_interned)]
        assert executor.spread_counts(graph, sets) == graph.csr().spread_counts(
            sets, None
        )
        assert executor.health_report()["reason"] == "SINGLE_WORKER"
        executor.close()


class TestSerialEquivalence:
    def test_spread_counts_match_serial(self, threaded):
        graph = build_graph()
        serial = graph.csr()
        sets = [[i] for i in range(graph.num_interned)]
        assert threaded.spread_counts(graph, sets) == serial.spread_counts(
            sets, None
        )
        horizon = float(graph.time + 9)
        assert threaded.spread_counts(
            graph, sets, horizon
        ) == serial.spread_counts(sets, horizon)

    def test_reachable_ids_match_serial(self, threaded):
        graph = build_graph()
        serial = graph.csr()
        sets = [[i, (i + 7) % graph.num_interned] for i in range(30)]
        assert threaded.reachable_ids_many(graph, sets) == [
            serial.reachable_ids(s, None) for s in sets
        ]

    def test_weighted_sums_bit_identical(self, threaded):
        graph = build_graph()
        serial = graph.csr()
        rng = random.Random(5)
        weights = np.asarray(
            [rng.random() for _ in range(graph.num_interned)], dtype=np.float64
        )
        sets = [[i] for i in range(graph.num_interned)]
        assert threaded.weighted_spread_sums(
            graph, sets, weights=weights
        ) == serial.weighted_spread_sums(sets, None, weights)

    @pytest.mark.parametrize("fold_name", ["count", "hop_discount", "time_decay"])
    def test_fold_sums_bit_identical(self, threaded, fold_name):
        graph = build_graph()
        serial = graph.csr()
        fold = resolve_fold(fold_name)
        sets = [[i] for i in range(graph.num_interned)]
        assert threaded.fold_spread_sums(
            graph, sets, fold=fold
        ) == serial.fold_spread_sums(sets, None, fold)

    def test_ancestors_match_serial(self, threaded):
        graph = build_graph()
        serial = graph.csr()
        targets = list(range(40))
        assert threaded.ancestor_ids(graph, targets) == serial.ancestor_ids(
            targets, None
        )
        assert threaded.touched_cone_ids(graph, targets) == serial.ancestor_ids(
            targets, None
        )

    def test_mutation_invalidates_clone_cache(self, threaded):
        graph = build_graph()
        sets = [[i] for i in range(graph.num_interned)]
        threaded.spread_counts(graph, sets)  # clones cut at this version
        graph.add_interaction(Interaction("n0", "n59", graph.time, 50))
        serial = graph.csr()
        assert threaded.spread_counts(graph, sets) == serial.spread_counts(
            sets, None
        )
        assert threaded.ancestor_ids(graph, list(range(40))) == serial.ancestor_ids(
            list(range(40)), None
        )


class TestFaultFallback:
    def test_shard_exception_recomputed_serially(self, threaded):
        graph = build_graph()
        serial_counts = graph.csr().spread_counts(
            [[i] for i in range(graph.num_interned)], None
        )
        sets = [[i] for i in range(graph.num_interned)]

        class BrokenKernel:
            def spread_counts(self, *args, **kwargs):
                raise RuntimeError("injected shard failure")

        threaded.ensure_plane = lambda graph, reverse=False: [
            BrokenKernel() for _ in range(WORKERS)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert threaded.spread_counts(graph, sets) == serial_counts
        assert any("THREAD_ERROR" in str(w.message) for w in caught)
        report = threaded.health_report()
        assert report["incidents"]["THREAD_ERROR"] >= 1
        # Incidents are absorbed: the executor never leaves sharded mode.
        assert report["state"] == "sharded"

    def test_closed_executor_serves_serially(self):
        executor = ShardedOracleExecutor(WORKERS)
        graph = build_graph()
        sets = [[i] for i in range(graph.num_interned)]
        expected = graph.csr().spread_counts(sets, None)
        assert executor.spread_counts(graph, sets) == expected
        executor.close()
        assert executor.health_report()["state"] == "halted"
        assert executor.spread_counts(graph, sets) == expected
        executor.close()  # idempotent
