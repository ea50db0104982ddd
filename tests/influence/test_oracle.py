"""Unit tests for the counted, cached influence oracle."""

import pytest

from repro import open_tracker
from repro.errors import ConfigError
from repro.influence.oracle import InfluenceOracle
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def star_graph():
    graph = TDNGraph()
    for i in range(4):
        graph.add_interaction(Interaction("hub", f"leaf{i}", 0, 10))
    return graph


class TestSpread:
    def test_empty_set_is_zero_and_free(self):
        oracle = InfluenceOracle(star_graph())
        assert oracle.spread([]) == 0
        assert oracle.calls == 0  # normalization costs nothing

    def test_singleton_spread(self):
        oracle = InfluenceOracle(star_graph())
        assert oracle.spread(["hub"]) == 5  # hub + 4 leaves
        assert oracle.spread(["leaf0"]) == 1

    def test_set_spread_counts_distinct(self):
        oracle = InfluenceOracle(star_graph())
        assert oracle.spread(["hub", "leaf0"]) == 5

    def test_horizon_respected(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("a", "c", 0, 9))
        oracle = InfluenceOracle(graph)
        assert oracle.spread(["a"]) == 3
        assert oracle.spread(["a"], min_expiry=5) == 2


class TestCountingAndCaching:
    def test_repeat_evaluation_hits_cache(self):
        oracle = InfluenceOracle(star_graph())
        oracle.spread(["hub"])
        oracle.spread(["hub"])
        assert oracle.calls == 1

    def test_node_order_irrelevant_for_cache(self):
        oracle = InfluenceOracle(star_graph())
        oracle.spread(["hub", "leaf0"])
        oracle.spread(["leaf0", "hub"])
        assert oracle.calls == 1

    def test_different_horizons_cached_separately(self):
        oracle = InfluenceOracle(star_graph())
        assert oracle.spread(["hub"], min_expiry=None) == 5
        assert oracle.spread(["hub"], min_expiry=20) == 1
        assert oracle.calls == 2

    def test_cache_invalidated_on_mutation(self):
        graph = star_graph()
        oracle = InfluenceOracle(graph)
        assert oracle.spread(["hub"]) == 5
        graph.add_interaction(Interaction("hub", "leaf9", 0, 10))
        assert oracle.spread(["hub"]) == 6
        assert oracle.calls == 2

    def test_cache_invalidated_on_expiry(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("a", "c", 0, 5))
        oracle = InfluenceOracle(graph)
        assert oracle.spread(["a"]) == 3
        graph.advance_to(1)
        assert oracle.spread(["a"]) == 2

    def test_explicit_invalidate(self):
        oracle = InfluenceOracle(star_graph())
        oracle.spread(["hub"])
        oracle.invalidate()
        oracle.spread(["hub"])
        assert oracle.calls == 2

    def test_shared_counter(self):
        from repro.utils.counters import CallCounter

        counter = CallCounter("shared")
        graph = star_graph()
        oracle_a = InfluenceOracle(graph, counter)
        oracle_b = InfluenceOracle(graph, counter)
        oracle_a.spread(["hub"])
        oracle_b.spread(["leaf0"])
        assert counter.total == 2


class TestMarginalGain:
    def test_gain_matches_direct_difference(self):
        oracle = InfluenceOracle(star_graph())
        expected = oracle.spread(["hub", "leaf0"]) - oracle.spread(["hub"])
        assert oracle.marginal_gain(["hub"], "leaf0") == expected

    def test_gain_of_member_is_zero(self):
        oracle = InfluenceOracle(star_graph())
        calls_before = oracle.calls
        assert oracle.marginal_gain(["hub"], "hub") == 0
        assert oracle.calls == calls_before  # short-circuit, no evaluation

    def test_gain_from_empty_base(self):
        oracle = InfluenceOracle(star_graph())
        assert oracle.marginal_gain([], "hub") == 5


class TestBackends:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            InfluenceOracle(star_graph(), backend="sparse")

    def test_backends_agree_on_values(self):
        graph = star_graph()
        dict_oracle = InfluenceOracle(graph, backend="dict")
        csr_oracle = InfluenceOracle(graph, backend="csr")
        for seeds in (["hub"], ["leaf0"], ["hub", "leaf1"], ["missing"]):
            assert dict_oracle.spread(seeds) == csr_oracle.spread(seeds)

    def test_unknown_nodes_count_themselves(self):
        # A queried node the graph has never seen still "influences" itself,
        # on both backends (the dict BFS yields it from the seed set).
        graph = star_graph()
        for backend in ("dict", "csr"):
            oracle = InfluenceOracle(graph, backend=backend)
            assert oracle.spread(["ghost"]) == 1
            assert oracle.spread(["ghost", "phantom"]) == 2
            assert oracle.spread(["hub", "ghost"]) == 6


class TestParallelArgument:
    @pytest.mark.parametrize("parallel", [True, 1.5, "2", object()])
    def test_malformed_parallel_rejected_at_construction(self, parallel):
        # Before any call is counted, not as an AttributeError at the
        # first batch.
        with pytest.raises(ConfigError, match="parallel must be"):
            InfluenceOracle(star_graph(), parallel=parallel)

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_worker_count_below_one_rejected(self, parallel):
        # The same check and message as the facade, the tracker and the
        # executor; 1 stays serial (test_executor.py pins that).
        with pytest.raises(
            ConfigError, match=f"workers must be an int >= 1, got {parallel}$"
        ):
            InfluenceOracle(star_graph(), parallel=parallel)

    @pytest.mark.parametrize("semantics", [None, "weighted_sum"])
    def test_facade_rejects_fractional_workers(self, semantics):
        # The facade names the argument its caller passed.
        with pytest.raises(ConfigError, match="workers must be .* got 1.5"):
            open_tracker(workers=1.5, semantics=semantics)

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"semantics": "hop_discount"},
            {"semantics": "weighted_sum"},
            {"semantics": "weighted_sum", "weights": {"hub": 2.0}},
            {"semantics": "weighted_sum", "weights": lambda node: 0.5},
        ],
        ids=["count", "hop_discount", "uniform", "mapping", "callable"],
    )
    def test_lone_miss_never_dispatches(self, options):
        # A one-set miss runs on the caller's thread even when the
        # executor would shard a batch of one; two misses are sharded.
        def dispatches():
            return metrics_registry().counter_values()[
                metric_names.EXECUTOR_DISPATCHES_TOTAL
            ]

        serial = InfluenceOracle(star_graph(), **options)
        executor = ShardedOracleExecutor(2, min_batch=1)
        try:
            oracle = InfluenceOracle(star_graph(), parallel=executor, **options)
            before = dispatches()
            assert oracle.spread(["hub"]) == serial.spread(["hub"])
            assert oracle.spread_many([["leaf0"]]) == serial.spread_many([["leaf0"]])
            assert dispatches() == before
            sets = [["leaf1"], ["leaf2"]]
            assert oracle.spread_many(sets) == serial.spread_many(sets)
            assert dispatches() == before + 1
        finally:
            executor.close()


class TestSpreadMany:
    def test_values_match_sequential_spreads(self):
        graph = star_graph()
        batched = InfluenceOracle(graph)
        sequential = InfluenceOracle(graph)
        sets = [["hub"], ["leaf0"], [], ["hub", "leaf0"], ["leaf1"]]
        assert batched.spread_many(sets) == [sequential.spread(s) for s in sets]

    def test_call_counting_matches_sequential(self):
        graph = star_graph()
        batched = InfluenceOracle(graph)
        sequential = InfluenceOracle(graph)
        sets = [["hub"], ["hub"], ["leaf0"], [], ["leaf0", "hub"], ["hub"]]
        batched.spread_many(sets, min_expiry=5)
        for s in sets:
            sequential.spread(s, min_expiry=5)
        assert batched.calls == sequential.calls == 3

    def test_empty_batch(self):
        assert InfluenceOracle(star_graph()).spread_many([]) == []


class TestCacheEviction:
    """Under cache pressure the oracle must evict, never stop memoizing."""

    def test_recent_entries_stay_hot_at_capacity(self):
        oracle = InfluenceOracle(star_graph(), max_cache_entries=2)
        oracle.spread(["leaf0"])  # cache: [leaf0]
        oracle.spread(["leaf1"])  # cache: [leaf0, leaf1]
        oracle.spread(["leaf2"])  # evicts leaf0 -> cache: [leaf1, leaf2]
        assert oracle.calls == 3
        # The two most recent spreads are still memoized.
        oracle.spread(["leaf2"])
        oracle.spread(["leaf1"])
        assert oracle.calls == 3
        # The evicted oldest entry re-counts (and re-enters the cache).
        oracle.spread(["leaf0"])
        assert oracle.calls == 4
        oracle.spread(["leaf0"])
        assert oracle.calls == 4

    def test_query_heavy_phase_does_not_lock_out_memoization(self):
        # Regression: the old implementation stopped admitting entries once
        # the cap was reached, so every *new* spread after the cap was
        # re-counted forever within a version.  With FIFO eviction a
        # repeated recent query is always a hit.
        oracle = InfluenceOracle(star_graph(), max_cache_entries=3)
        for index in range(10):
            oracle.spread([f"leaf{index % 4}"])  # rolling working set
        calls_after_warmup = oracle.calls
        oracle.spread(["leaf1"])  # most recent entry: must be cached
        assert oracle.calls == calls_after_warmup

    def test_zero_capacity_disables_memoization(self):
        oracle = InfluenceOracle(star_graph(), max_cache_entries=0)
        oracle.spread(["hub"])
        oracle.spread(["hub"])
        assert oracle.calls == 2

    def test_negative_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="max_cache_entries"):
            InfluenceOracle(star_graph(), max_cache_entries=-1)
