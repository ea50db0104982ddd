"""Prefetch: announced sets ride in the idle planes of a sweep already run.

``InfluenceOracle.spread_many(sets, horizon, prefetch=build)`` calls
``build`` only where a bit-plane sweep runs with planes to spare, and
only takes what fits them: it never adds a walk, a 64-set chunk or an
executor dispatch.  The values wait, uncounted, for a later miss at the
same graph version and time, which counts one call and runs no sweep.
Transparency over random streams is the hypothesis property in
``tests/property/test_prefetch_transparency.py``; these tests pin the
cost side and the lifetime rules.
"""

import os
from unittest import mock

import pytest

from repro.influence.oracle import InfluenceOracle
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel import ShardedOracleExecutor
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NUM_NODES = 140


def chain_graph(vectorized=True):
    """``n0 -> n1 -> ... -> n139``, every edge alive forever."""
    graph = TDNGraph()
    if vectorized:
        with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": "0"}):
            graph.csr()
    graph.add_batch(
        [Interaction(f"n{i}", f"n{i + 1}", 0, None) for i in range(NUM_NODES - 1)]
    )
    return graph


def singletons(start, stop):
    return [(f"n{i}",) for i in range(start, stop)]


def never_called():
    raise AssertionError("the prefetch builder was called")


def prefetch_counters():
    values = metrics_registry().counter_values()
    return (
        values[metric_names.ORACLE_PREFETCHED_SETS_TOTAL],
        values[metric_names.ORACLE_PREFETCH_SERVED_TOTAL],
    )


@pytest.fixture
def sweeps(monkeypatch):
    """Sizes of every bit-plane ``spread_counts`` request, and lone walks."""
    seen = {"sweeps": [], "walks": 0}
    spread_counts = DeltaCSR.spread_counts
    reachable_count = DeltaCSR.reachable_count

    def counting_sweep(self, id_sets, min_expiry=None):
        seen["sweeps"].append(len(id_sets))
        return spread_counts(self, id_sets, min_expiry)

    def counting_walk(self, ids, min_expiry=None):
        seen["walks"] += 1
        return reachable_count(self, ids, min_expiry)

    monkeypatch.setattr(DeltaCSR, "spread_counts", counting_sweep)
    monkeypatch.setattr(DeltaCSR, "reachable_count", counting_walk)
    return seen


class TestNoCostWhereNothingRides:
    def test_scalar_path_never_builds_keys(self):
        oracle = InfluenceOracle(chain_graph(vectorized=False))
        assert oracle.spread_many(singletons(0, 5), prefetch=never_called) == [
            NUM_NODES - i for i in range(5)
        ]

    def test_dict_backend_never_builds_keys(self):
        oracle = InfluenceOracle(chain_graph(), backend="dict")
        oracle.spread_many(singletons(0, 5), prefetch=never_called)

    def test_lone_walk_never_builds_keys(self, sweeps):
        oracle = InfluenceOracle(chain_graph())
        assert oracle.spread_many(
            [("n3",), ("n3",)], prefetch=never_called
        ) == [NUM_NODES - 3] * 2
        assert sweeps == {"sweeps": [], "walks": 1}

    def test_weight_callable_never_builds_keys(self):
        oracle = InfluenceOracle(
            chain_graph(), semantics="weighted_sum", weights=lambda node: 2.0
        )
        oracle.spread_many(singletons(0, 5), prefetch=never_called)

    @pytest.mark.parametrize("width", [64, 128])
    def test_full_planes_prefetch_nothing(self, sweeps, width):
        oracle = InfluenceOracle(chain_graph())
        oracle.spread_many(singletons(0, width), prefetch=never_called)
        assert sweeps["sweeps"] == [width]

    def test_all_hits_never_build_keys(self):
        oracle = InfluenceOracle(chain_graph())
        oracle.spread_many(singletons(0, 5))
        oracle.spread_many(singletons(0, 5), prefetch=never_called)


class TestRiding:
    def test_riders_fill_idle_planes_and_are_served_once(self, sweeps):
        graph = chain_graph()
        oracle = InfluenceOracle(graph)
        announced = [{"n10", "n20"}, {"n30"}, {"n40", "n41"}]
        prefetched, served = prefetch_counters()
        assert oracle.spread_many(
            singletons(0, 3), prefetch=lambda: iter(announced)
        ) == [140, 139, 138]
        assert sweeps["sweeps"] == [6]  # 3 misses + 3 riders, one sweep
        assert oracle.calls == 3  # riders are not counted ...
        assert len(oracle._memo) == 3  # noqa: SLF001 - ... nor memoized
        assert prefetch_counters() == (prefetched + 3, served)
        # A later miss is one call, served without a sweep or a walk.
        assert oracle.spread_many(announced[::-1]) == [100, 110, 130]
        assert oracle.spread(["n30"]) == 110  # now a memo hit
        assert sweeps == {"sweeps": [6], "walks": 0}
        assert oracle.calls == 6
        assert prefetch_counters() == (prefetched + 3, served + 3)
        assert oracle._prefetched == {}  # noqa: SLF001 - served once

    def test_riders_never_add_a_chunk(self, sweeps):
        oracle = InfluenceOracle(chain_graph())
        oracle.spread_many(
            singletons(0, 60), prefetch=lambda: iter(singletons(60, 80))
        )
        assert sweeps["sweeps"] == [64]
        assert len(oracle._prefetched) == 4  # noqa: SLF001

    def test_known_and_requested_sets_do_not_ride(self, sweeps):
        oracle = InfluenceOracle(chain_graph())
        oracle.spread_many(singletons(0, 2))  # memo hits from here on
        announced = singletons(0, 4) + [("n3",), (), ("ghost",), ("n9", "ghost")]
        oracle.spread_many(singletons(2, 4), prefetch=lambda: iter(announced))
        assert sweeps["sweeps"] == [2, 2]  # nothing new to ride
        assert oracle._prefetched == {}  # noqa: SLF001

    def test_riders_keep_a_small_request_off_the_pool(self, sweeps):
        executor = ShardedOracleExecutor(2, min_batch=8)
        try:
            oracle = InfluenceOracle(chain_graph(), parallel=executor)
            oracle.spread_many(
                singletons(0, 3), prefetch=lambda: iter(singletons(3, 20))
            )
            assert not executor.pool_running  # still served serially
            assert sweeps["sweeps"] == [7]  # 3 misses + 4 riders < 8
        finally:
            executor.close()

    def test_served_rider_evicted_mid_batch_is_swept_for_its_duplicate(
        self, sweeps
    ):
        """At capacity 1, ``n6`` evicts the served ``n5`` before the batch
        asks for ``n5`` again; the store gave it away, so the one sweep
        evaluates it too."""
        oracle = InfluenceOracle(chain_graph(), max_cache_entries=1)
        oracle.spread_many(singletons(0, 2), prefetch=lambda: iter([("n5",)]))
        assert oracle.spread_many([("n5",), ("n6",), ("n5",)]) == [135, 134, 135]
        assert oracle.calls == 5
        assert sweeps["sweeps"] == [3, 2]
        assert oracle._prefetched == {}  # noqa: SLF001

    def test_sharded_request_fills_its_last_chunk(self):
        executor = ShardedOracleExecutor(2, min_batch=8)
        try:
            oracle = InfluenceOracle(chain_graph(), parallel=executor)
            oracle.spread_many(
                singletons(0, 70), prefetch=lambda: iter(singletons(70, 140))
            )
            assert len(oracle._prefetched) == 58  # noqa: SLF001
            assert oracle.spread_many(singletons(70, 128)) == [
                NUM_NODES - i for i in range(70, 128)
            ]
            assert oracle.calls == 128
        finally:
            executor.close()


class TestLifetime:
    def announce(self, oracle):
        oracle.spread_many(singletons(0, 2), prefetch=lambda: iter([("n5",)]))
        assert len(oracle._prefetched) == 1  # noqa: SLF001

    def test_version_bump_drops_values(self, sweeps):
        graph = chain_graph()
        oracle = InfluenceOracle(graph)
        self.announce(oracle)
        graph.add_interaction(Interaction("n5", "x", 0, None))
        assert oracle.spread_many([("n5",), ("n6",)]) == [136, 134]
        assert sweeps["sweeps"] == [3, 2]  # recomputed, not served

    def test_clock_tick_drops_values(self):
        graph = chain_graph()
        oracle = InfluenceOracle(graph)
        self.announce(oracle)
        graph.advance_to(graph.time + 1)  # expires nothing: same version
        oracle.spread(["n9"])
        assert oracle._prefetched == {}  # noqa: SLF001

    def test_invalidate_drops_values(self):
        oracle = InfluenceOracle(chain_graph())
        self.announce(oracle)
        oracle.invalidate()
        assert oracle._prefetched == {}  # noqa: SLF001

    def test_evaluator_exception_drops_values(self, monkeypatch):
        oracle = InfluenceOracle(chain_graph())
        self.announce(oracle)

        def broken(self, id_sets, min_expiry=None):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(DeltaCSR, "spread_counts", broken)
        with pytest.raises(RuntimeError, match="sweep failed"):
            oracle.spread_many(singletons(10, 12))
        assert oracle._prefetched == {}  # noqa: SLF001
