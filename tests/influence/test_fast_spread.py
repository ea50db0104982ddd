"""``top_spreaders``: the one-shot singleton-spread ranking."""

import random

import pytest

from repro.influence import top_spreaders
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NODES = [f"n{i}" for i in range(8)]


def random_graph(rng, num_edges=14, max_lifetime=9):
    graph = TDNGraph()
    for _ in range(num_edges):
        u, v = rng.sample(range(len(NODES)), 2)
        graph.add_interaction(
            Interaction(NODES[u], NODES[v], 0, rng.randint(1, max_lifetime))
        )
    return graph


class TestTopSpreaders:
    def test_ranks_hub_first(self):
        graph = TDNGraph()
        for i in range(5):
            graph.add_interaction(Interaction("hub", f"x{i}", 0, 9))
        graph.add_interaction(Interaction("minor", "y", 0, 9))
        assert top_spreaders(graph, 1) == ["hub"]

    def test_count_zero(self):
        assert top_spreaders(TDNGraph(), 0) == []

    def test_negative_count(self):
        with pytest.raises(ValueError):
            top_spreaders(TDNGraph(), -1)

    def test_deterministic_tiebreak(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "x", 0, 9))
        graph.add_interaction(Interaction("b", "y", 0, 9))
        assert top_spreaders(graph, 2) == ["a", "b"]

    @pytest.mark.parametrize("horizon", [None, 5])
    def test_matches_oracle_ranking_on_random_graphs(self, horizon):
        for trial in range(20):
            graph = random_graph(random.Random(trial))
            oracle = InfluenceOracle(graph, backend="dict")
            nodes = graph.node_set()
            spreads = {n: oracle.spread([n], horizon) for n in nodes}
            expected = sorted(nodes, key=lambda n: (-spreads[n], repr(n)))
            assert top_spreaders(graph, len(nodes), horizon) == expected
            assert top_spreaders(graph, 3, horizon) == expected[:3]
