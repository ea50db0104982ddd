"""Unit and behavioural tests for SIEVEADN (paper Alg. 1)."""

import random

import pytest

from repro.core.sieve_adn import SieveADN
from repro.influence.oracle import InfluenceOracle
from repro.submodular.functions import SpreadFunction
from repro.submodular.greedy import brute_force_optimum
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def feed(graph, sieve, t, batch):
    graph.advance_to(t)
    graph.add_batch(batch)
    sieve.on_batch(t, batch)


class TestBasicBehaviour:
    def test_single_edge_selects_source(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        feed(graph, sieve, 0, [Interaction("a", "b", 0)])
        solution = sieve.query()
        assert "a" in solution.nodes
        assert solution.value == 2.0

    def test_empty_query(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        assert sieve.query().value == 0.0

    def test_budget_respected(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        batch = [Interaction(f"s{i}", f"t{i}", 0) for i in range(6)]
        feed(graph, sieve, 0, batch)
        assert len(sieve.query().nodes) <= 2

    def test_revisiting_node_can_be_admitted_later(self):
        """A node rejected early must be admissible once its gain grows."""
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.1, graph=graph)
        # Step 0: big star at h0 raises Delta high; x has tiny gain.
        batch0 = [Interaction("h0", f"a{i}", 0) for i in range(8)]
        batch0 += [Interaction("x", "y0", 0)]
        feed(graph, sieve, 0, batch0)
        # Step 1: x grows a bigger star; it reappears in the node stream
        # via its new edges and must now be able to displace nothing less
        # than a competitive set.
        batch1 = [Interaction("x", f"b{i}", 1) for i in range(20)]
        feed(graph, sieve, 1, batch1)
        assert sieve.query().nodes == ("x",)

    def test_query_time_recorded(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        feed(graph, sieve, 3, [Interaction("a", "b", 3)])
        assert sieve.query().time == 3


class TestHorizonFiltering:
    def test_edges_below_horizon_ignored(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=5)
        batch = [
            Interaction("short", "x", 0, 2),  # expiry 2 < 5: invisible
            Interaction("long", "y", 0, 9),  # expiry 9 >= 5
        ]
        feed(graph, sieve, 0, batch)
        solution = sieve.query()
        assert solution.nodes == ("long",)
        assert solution.value == 2.0

    def test_all_edges_below_horizon_is_noop(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=100)
        feed(graph, sieve, 0, [Interaction("a", "b", 0, 3)])
        assert sieve.query().value == 0.0


class TestApproximationGuarantee:
    def test_half_minus_eps_on_random_adns(self):
        """Theorem 2: (1/2 - eps) OPT on addition-only streams."""
        rng = random.Random(42)
        k, eps = 2, 0.1
        for _ in range(20):
            graph = TDNGraph()
            sieve = SieveADN(k=k, epsilon=eps, graph=graph)
            for t in range(8):
                batch = []
                for _ in range(rng.randint(1, 3)):
                    u, v = rng.randrange(7), rng.randrange(7)
                    if u != v:
                        batch.append(Interaction(f"n{u}", f"n{v}", t))
                feed(graph, sieve, t, batch)
                oracle = InfluenceOracle(graph)
                optimum = brute_force_optimum(
                    SpreadFunction(oracle), sorted(graph.node_set(), key=repr), k
                )
                if optimum.value > 0:
                    assert sieve.query().value >= (0.5 - eps) * optimum.value - 1e-9


class TestCopy:
    def test_copy_is_deep_for_sieve_state(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        feed(graph, sieve, 0, [Interaction("a", "b", 0)])
        dup = sieve.copy()
        feed(graph, dup, 1, [Interaction("c", "d", 1)])
        assert "c" not in sieve.query().nodes
        assert "c" in set(dup.query().nodes) | {None}  # dup saw the new edge

    def test_copy_rehomes_horizon(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=10)
        dup = sieve.copy(min_expiry=3)
        assert dup.min_expiry == 3
        assert sieve.min_expiry == 10

    def test_copy_shares_graph_and_oracle(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        dup = sieve.copy()
        assert dup.graph is graph
        assert dup.oracle is sieve.oracle


class TestCachedValueReadout:
    def test_cached_value_lower_bounds_true_value(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        feed(graph, sieve, 0, [Interaction("a", "b", 0)])
        # Grow a's spread without re-offering a to the sieve: cached value
        # goes stale but must stay a lower bound.
        graph.advance_to(1)
        graph.add_interaction(Interaction("b", "c", 1))
        assert sieve.query_value_cached() <= sieve.query_value()

    def test_cached_value_zero_before_any_processing(self):
        graph = TDNGraph()
        sieve = SieveADN(k=2, epsilon=0.2, graph=graph)
        assert sieve.query_value_cached() == 0.0


class TestProcessCandidates:
    def test_on_candidates_syncs_and_feeds(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph, min_expiry=5)
        assert sieve.oracle.spread(["a"], 5) == 1
        graph.add_interaction(Interaction("a", "b", 0, 9))
        sieve.on_candidates(3, ["a"])
        solution = sieve.query()
        assert solution.nodes == ("a",)
        assert solution.value == 2.0  # the stale memo entry was evicted
        assert solution.time == 3

    def test_direct_candidate_feed(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 9))
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        sieve.process_candidates(["a"])
        assert sieve.query().nodes == ("a",)

    def test_empty_candidates_noop(self):
        graph = TDNGraph()
        sieve = SieveADN(k=1, epsilon=0.2, graph=graph)
        sieve.process_candidates([])
        assert sieve.query().value == 0.0


class PerPairSieveADN(SieveADN):
    """SIEVEADN spending one ``spread_many`` call per (S, S + node) pair."""

    def process_candidates(self, candidates):
        candidates = list(candidates)
        if not candidates:
            return
        oracle = self.oracle
        singletons = oracle.spread_many([(n,) for n in candidates], self.min_expiry)
        upper = {}
        for node, value in zip(candidates, singletons):
            upper[node] = value
            self.thresholds.update_delta(value)
        for node in candidates:
            for threshold, sieve in self.thresholds.items():
                if threshold > upper[node]:
                    break
                key = sieve.key
                if len(key) >= self.k or node in key:
                    continue
                base, with_node = oracle.spread_many(
                    (key, key | {node}), self.min_expiry
                )
                sieve.cached_value = float(base)
                if with_node - base >= threshold:
                    sieve.add(node)
                    sieve.cached_value = float(with_node)


class TestBatchedPairs:
    """One oracle batch per candidate keeps the per-pair accounting."""

    @pytest.mark.parametrize("backend", ["csr", "dict"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_pair_calls(self, backend, seed):
        min_expiry = None if seed % 2 else 4
        runs = []
        for cls in (SieveADN, PerPairSieveADN):
            graph = TDNGraph()
            # A tiny memo makes FIFO capacity evictions happen mid-batch.
            oracle = InfluenceOracle(graph, backend=backend, max_cache_entries=9)
            sieve = cls(
                k=3, epsilon=0.1, graph=graph, oracle=oracle, min_expiry=min_expiry
            )
            events = random.Random(seed)
            trace = []
            for t in range(25):
                batch = []
                for _ in range(events.randint(1, 4)):
                    u, v = events.sample(range(10), 2)
                    batch.append(Interaction(u, v, t, events.randint(1, 9)))
                feed(graph, sieve, t, batch)
                solution = sieve.query()
                trace.append(
                    (solution.nodes, solution.value, sieve.query_value_cached())
                )
            memo_order = list(oracle._memo.data)  # noqa: SLF001 - FIFO order
            runs.append((trace, oracle.calls, memo_order))
        assert runs[0] == runs[1]


class UnannouncedOracle(InfluenceOracle):
    """An oracle that ignores ``prefetch``: the reference for riding."""

    def spread_many(self, sets, min_expiry=None, prefetch=None):
        return super().spread_many(sets, min_expiry)


class TestSieveKeysRide:
    """The sieve keys ride in the singleton sweep's idle planes."""

    def test_query_needs_no_sweep_and_nothing_else_moves(self, monkeypatch):
        import os
        from unittest import mock

        from repro.datasets.registry import make_interactions
        from repro.tdn.csr import DeltaCSR

        phase = {"query": False}
        query_sweeps = []
        spread_counts = DeltaCSR.spread_counts

        def counting_sweep(self, id_sets, min_expiry=None):
            if phase["query"]:
                query_sweeps[-1] += 1
            return spread_counts(self, id_sets, min_expiry)

        monkeypatch.setattr(DeltaCSR, "spread_counts", counting_sweep)
        events = make_interactions("gowalla", 60 * 40, seed=1)
        runs = []
        for oracle_cls in (InfluenceOracle, UnannouncedOracle):
            graph = TDNGraph()
            with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": "0"}):
                graph.csr()  # the bit-plane sweeps, at any graph size
            oracle = oracle_cls(graph)
            sieve = SieveADN(k=5, epsilon=0.2, graph=graph, oracle=oracle)
            query_sweeps.append(0)
            trace = []
            for t in range(60):
                batch = [
                    Interaction(e.source, e.target, t, 15)
                    for e in events[40 * t : 40 * (t + 1)]
                ]
                feed(graph, sieve, t, batch)
                phase["query"] = True
                solution = sieve.query()
                phase["query"] = False
                trace.append((solution.nodes, solution.value))
            memo = list(oracle._memo.data.items())  # noqa: SLF001 - FIFO order
            runs.append((trace, oracle.calls, memo))
        assert runs[0] == runs[1]
        assert query_sweeps[0] == 0 < query_sweeps[1]
