"""Tests for the extension baselines: sliding-window SSO and interchange."""

import random

from repro.baselines.interchange import InterchangeGreedy
from repro.baselines.sliding_window import SlidingWindowSSO
from repro.influence.oracle import InfluenceOracle
from repro.submodular.functions import CoverageFunction
from repro.submodular.greedy import brute_force_optimum
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class TestSlidingWindowSSO:
    def coverage_factory(self, sets):
        return lambda: CoverageFunction(sets)

    def test_window_restricts_answer(self):
        """Elements older than the window must stop contributing."""
        sets = [{i} for i in range(10)]
        sso = SlidingWindowSSO(self.coverage_factory(sets), k=3, epsilon=0.1, window=3)
        for element in range(10):
            sso.process(element)
        nodes, value = sso.query()
        # Only the last 3 elements are in the window; older ones are gone
        # from every surviving instance's input.
        assert set(nodes).issubset({7, 8, 9})
        assert value == 3.0

    def test_instance_count_stays_small(self):
        sets = [{i % 4} for i in range(50)]
        sso = SlidingWindowSSO(self.coverage_factory(sets), k=2, epsilon=0.2, window=10)
        for element in range(50):
            sso.process(element % 4)
        assert sso.num_instances <= 12

    def test_one_third_guarantee_on_random_instances(self):
        """(1/3 - eps) of the window optimum (Epasto et al. guarantee)."""
        rng = random.Random(9)
        for _ in range(10):
            sets = [
                {rng.randrange(12) for _ in range(rng.randint(1, 4))}
                for _ in range(10)
            ]
            window, k, eps = 5, 2, 0.1
            cover = CoverageFunction(sets)
            sso = SlidingWindowSSO(
                lambda: CoverageFunction(sets), k=k, epsilon=eps, window=window
            )
            stream = [rng.randrange(12) for _ in range(15)]
            for element in stream:
                sso.process(element)
            window_elements = sorted(set(stream[-window:]))
            optimum = brute_force_optimum(cover, window_elements, k).value
            _, value = sso.query()
            assert value >= (1.0 / 3.0 - eps) * optimum - 1e-9

    def test_empty_query(self):
        sso = SlidingWindowSSO(
            lambda: CoverageFunction([{1}]), k=1, epsilon=0.1, window=5
        )
        assert sso.query() == ([], 0.0)


class TestInterchangeGreedy:
    def test_finds_hub(self):
        graph = TDNGraph()
        for i in range(4):
            graph.add_interaction(Interaction("hub", f"x{i}", 0, 9))
        algo = InterchangeGreedy(1, graph)
        assert algo.query().nodes == ("hub",)

    def test_swaps_toward_new_influencer(self):
        graph = TDNGraph()
        for i in range(3):
            graph.add_interaction(Interaction("old", f"x{i}", 0, 2))
        algo = InterchangeGreedy(1, graph, gamma=0.05)
        algo.on_batch(0, [])
        assert algo.query().nodes == ("old",)
        # A larger star appears; the old one decays away.
        graph.advance_to(1)
        batch = [Interaction("new", f"y{i}", 1, 9) for i in range(8)]
        graph.add_batch(batch)
        algo.on_batch(1, batch)
        assert algo.query().nodes == ("new",)

    def test_queries_are_costed_incrementally(self):
        """The memo is kept across queries: a repeat query on an unchanged
        graph costs no call, and after a batch in one island only the
        sets that reach it are evaluated again."""
        graph = TDNGraph()
        for i in range(4):
            graph.add_interaction(Interaction("hub", f"x{i}", 0, 9))
        graph.add_interaction(Interaction("p", "q", 0, 9))
        graph.add_interaction(Interaction("r", "s", 0, 9))
        oracle = InfluenceOracle(graph)
        algo = InterchangeGreedy(1, graph, oracle)
        spent = []
        for query in range(3):
            if query == 2:
                batch = [Interaction("p", "z", 0, 9)]
                graph.add_batch(batch)
                algo.on_batch(0, batch)
            before = oracle.calls
            assert algo.query().nodes == ("hub",)
            spent.append(oracle.calls - before)
        fresh = InfluenceOracle(graph)
        InterchangeGreedy(1, graph, fresh).query()
        assert spent[0] > 0 and spent[1] == 0
        assert 0 < spent[2] < fresh.calls

    def test_dead_members_repaired(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        algo = InterchangeGreedy(1, graph)
        algo.on_batch(0, [])
        assert algo.query().nodes == ("a",)
        graph.advance_to(1)
        graph.add_interaction(Interaction("c", "d", 1, 9))
        algo.on_batch(1, [])
        assert algo.query().nodes == ("c",)

    def test_empty_graph(self):
        algo = InterchangeGreedy(2, TDNGraph())
        assert algo.query().value == 0.0

    def test_respects_budget(self):
        graph = TDNGraph()
        for i in range(8):
            graph.add_interaction(Interaction(f"s{i}", f"t{i}", 0, 9))
        algo = InterchangeGreedy(3, graph)
        assert len(algo.query().nodes) == 3
