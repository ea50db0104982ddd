"""Unit tests for the Random and Greedy baselines."""

from repro.baselines.greedy_recompute import GreedyRecompute
from repro.baselines.random_baseline import RandomBaseline
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def populated_graph():
    graph = TDNGraph()
    for i in range(5):
        graph.add_interaction(Interaction("hub", f"leaf{i}", 0, 9))
    graph.add_interaction(Interaction("solo", "other", 0, 9))
    return graph


class TestRandomBaseline:
    def test_respects_budget(self):
        graph = populated_graph()
        random_algo = RandomBaseline(3, graph, seed=1)
        random_algo.on_batch(0, [])
        assert len(random_algo.query().nodes) == 3

    def test_k_larger_than_population(self):
        graph = populated_graph()
        random_algo = RandomBaseline(100, graph, seed=1)
        assert len(random_algo.query().nodes) == graph.num_nodes

    def test_empty_graph(self):
        random_algo = RandomBaseline(3, TDNGraph(), seed=1)
        assert random_algo.query().value == 0.0

    def test_deterministic_with_seed(self):
        graph = populated_graph()
        a = RandomBaseline(3, graph, seed=42).query().nodes
        b = RandomBaseline(3, graph, seed=42).query().nodes
        assert a == b

    def test_redraws_each_query(self):
        graph = populated_graph()
        random_algo = RandomBaseline(2, graph, seed=7)
        draws = {random_algo.query().nodes for _ in range(10)}
        assert len(draws) > 1

    def test_query_costs_at_most_one_scoring_call(self):
        """From scratch: every query redraws.  Its oracle cost is one
        scoring call, a memo hit when the same set was scored and nothing
        since touched its cone (k = every alive node redraws one set)."""
        graph = populated_graph()
        oracle = InfluenceOracle(graph)
        baseline = RandomBaseline(graph.num_nodes, graph, oracle, seed=3)
        spent = []
        for query in range(3):
            if query == 2:
                graph.add_interaction(Interaction("leaf0", "deep", 0, 9))
            before = oracle.calls
            baseline.query()
            spent.append(oracle.calls - before)
        assert spent == [1, 0, 1]

    def test_value_is_true_spread(self):
        graph = populated_graph()
        random_algo = RandomBaseline(1, graph, seed=3)
        solution = random_algo.query()
        from repro.influence.oracle import InfluenceOracle

        assert solution.value == InfluenceOracle(graph).spread(solution.nodes)


class TestGreedyRecompute:
    def test_finds_the_hub(self):
        graph = populated_graph()
        greedy = GreedyRecompute(1, graph)
        assert greedy.query().nodes == ("hub",)

    def test_two_seeds_cover_both_stars(self):
        graph = populated_graph()
        greedy = GreedyRecompute(2, graph)
        assert set(greedy.query().nodes) == {"hub", "solo"}
        assert greedy.query().value == 8.0

    def test_empty_graph(self):
        greedy = GreedyRecompute(2, TDNGraph())
        assert greedy.query().value == 0.0

    def test_recomputes_after_decay(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("c", "d", 0, 5))
        graph.add_interaction(Interaction("c", "e", 0, 5))
        greedy = GreedyRecompute(1, graph)
        greedy.on_batch(0, [])
        assert greedy.query().nodes == ("c",)
        graph.advance_to(1)
        greedy.on_batch(1, [])
        assert greedy.query().nodes == ("c",)

    def test_every_query_pays_a_fresh_oracle_cost(self):
        """Calls per query are at least one per alive node and equal to a
        fresh oracle's, for the oracle built here and the tracker's."""
        from repro.core.tracker import InfluenceTracker
        from repro.influence.oracle import InfluenceOracle

        batches = [
            [("hub", f"leaf{i}", 9) for i in range(5)] + [("solo", "other", 9)],
            [("leaf0", "deep", 9), ("solo", "x", 9)],
            [],
            [("hub", "y", 2)],
        ]
        tracker = InfluenceTracker("greedy", k=2)
        standalone = GreedyRecompute(2, tracker.graph)
        for t, batch in enumerate(batches):
            tracker.graph.advance_to(t)
            tracker.graph.add_batch(
                [Interaction(u, v, t, lifetime) for u, v, lifetime in batch]
            )
            fresh = InfluenceOracle(tracker.graph)
            GreedyRecompute(2, tracker.graph, oracle=fresh).query()
            for algorithm in (tracker.algorithm, standalone):
                before = algorithm.oracle.calls
                algorithm.query()
                spent = algorithm.oracle.calls - before
                assert spent >= tracker.graph.num_nodes
                assert spent == fresh.calls

    def test_matches_quality_reference(self):
        """Greedy on reachability achieves (1 - 1/e) OPT; on this small
        instance it is exactly optimal."""
        from repro.influence.oracle import InfluenceOracle
        from repro.submodular.functions import SpreadFunction
        from repro.submodular.greedy import brute_force_optimum

        graph = populated_graph()
        greedy = GreedyRecompute(2, graph)
        oracle = InfluenceOracle(graph)
        optimum = brute_force_optimum(
            SpreadFunction(oracle), sorted(graph.node_set(), key=repr), 2
        )
        assert greedy.query().value == optimum.value
