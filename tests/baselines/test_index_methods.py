"""Behavioural tests for IMM, TIM+ and the DIM-style index."""

import pytest

from repro.baselines.dim import DIMIndex
from repro.baselines.imm import IMM, log_binomial
from repro.baselines.tim_plus import TIMPlus
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def calls_per_query(algorithm, oracle, graph, queries=3):
    """Oracle calls each of ``queries`` queries spends; before the last one
    an edge lands in the hub's cone (the first two see one graph)."""
    spent = []
    for query in range(queries):
        if query == queries - 1:
            batch = [Interaction("leaf0", "deep", graph.time, 9)]
            graph.add_batch(batch)
            algorithm.on_batch(graph.time, batch)
        before = oracle.calls
        assert algorithm.query().nodes == ("hub",)
        spent.append(oracle.calls - before)
    return spent


def hub_graph(repeats=30):
    """One dominant hub (near-1 probabilities) plus background noise."""
    graph = TDNGraph()
    for i in range(5):
        for _ in range(repeats):
            graph.add_interaction(Interaction("hub", f"leaf{i}", 0, 9))
    graph.add_interaction(Interaction("x", "y", 0, 9))
    return graph


class TestLogBinomial:
    def test_known_values(self):
        import math

        assert log_binomial(5, 2) == pytest.approx(math.log(10))
        assert log_binomial(10, 0) == pytest.approx(0.0)

    def test_degenerate(self):
        assert log_binomial(3, 5) == 0.0
        assert log_binomial(0, 0) == 0.0


@pytest.mark.parametrize("cls", [IMM, TIMPlus])
class TestStaticIndexMethods:
    def test_finds_dominant_hub(self, cls):
        graph = hub_graph()
        algo = cls(1, graph, seed=1, max_rr_sets=2_000)
        algo.on_batch(0, [])
        solution = algo.query()
        assert solution.nodes == ("hub",)
        assert solution.value == 6.0  # true reachability value reported

    def test_query_is_rebuilt_but_scored_through_the_memo(self, cls):
        """From scratch: each query re-samples its index.  Its oracle cost
        is one scoring call, a memo hit while the seeds' cone is unchanged."""
        graph = hub_graph()
        oracle = InfluenceOracle(graph)
        algo = cls(1, graph, oracle, seed=1, max_rr_sets=2_000)
        assert calls_per_query(algo, oracle, graph) == [1, 0, 1]

    def test_empty_graph(self, cls):
        algo = cls(2, TDNGraph(), seed=1)
        assert algo.query().value == 0.0

    def test_respects_budget(self, cls):
        graph = hub_graph()
        algo = cls(3, graph, seed=2, max_rr_sets=1_000)
        assert len(algo.query().nodes) <= 3

    def test_adapts_to_decay(self, cls):
        graph = TDNGraph()
        for _ in range(30):
            graph.add_interaction(Interaction("early", "e1", 0, 1))
            graph.add_interaction(Interaction("late", "l1", 0, 9))
            graph.add_interaction(Interaction("late", "l2", 0, 9))
        algo = cls(1, graph, seed=3, max_rr_sets=1_000)
        graph.advance_to(1)
        algo.on_batch(1, [])
        assert algo.query().nodes == ("late",)


class TestDIMIndex:
    def test_finds_dominant_hub(self):
        graph = TDNGraph()
        dim = DIMIndex(1, graph, seed=1, beta=8.0, max_sketches=500)
        batch = []
        for i in range(5):
            for _ in range(30):
                batch.append(Interaction("hub", f"leaf{i}", 0, 9))
        batch.append(Interaction("x", "y", 0, 9))
        graph.add_batch(batch)
        dim.on_batch(0, batch)
        assert dim.query().nodes == ("hub",)

    def test_query_costs_one_scoring_call(self):
        """Incremental: the pool is kept between queries, and a query's
        oracle cost is one scoring call, a memo hit while the seeds' cone
        is unchanged."""
        graph = TDNGraph()
        oracle = InfluenceOracle(graph)
        dim = DIMIndex(1, graph, oracle, seed=1, beta=8.0, max_sketches=500)
        batch = hub_graph().alive_interactions()
        graph.add_batch(batch)
        dim.on_batch(0, batch)
        assert calls_per_query(dim, oracle, graph) == [1, 0, 1]

    def test_index_tracks_expiry(self):
        # A generous beta keeps the pool large enough that estimation noise
        # (DIM's documented instability) cannot flip this tiny instance.
        graph = TDNGraph()
        dim = DIMIndex(1, graph, seed=2, beta=60.0, max_sketches=1_000)
        batch = []
        for _ in range(30):
            batch.append(Interaction("early", "e1", 0, 1))
            batch.append(Interaction("early", "e2", 0, 1))
            batch.append(Interaction("late", "l1", 0, 5))
        graph.add_batch(batch)
        dim.on_batch(0, batch)
        assert dim.query().nodes == ("early",)
        graph.advance_to(1)
        dim.on_batch(1, [])
        assert dim.query().nodes == ("late",)

    def test_sketch_pool_bounded(self):
        graph = TDNGraph()
        dim = DIMIndex(1, graph, seed=3, beta=100.0, max_sketches=40)
        batch = [Interaction(f"a{i}", f"b{i}", 0, 9) for i in range(20)]
        graph.add_batch(batch)
        dim.on_batch(0, batch)
        assert dim.num_sketches <= 40

    def test_empty_graph_query(self):
        dim = DIMIndex(2, TDNGraph(), seed=1)
        assert dim.query().value == 0.0

    def test_pool_cleared_when_graph_empties(self):
        graph = TDNGraph()
        dim = DIMIndex(1, graph, seed=4, beta=4.0)
        batch = [Interaction("a", "b", 0, 1)]
        graph.add_batch(batch)
        dim.on_batch(0, batch)
        assert dim.num_sketches > 0
        graph.advance_to(1)
        dim.on_batch(1, [])
        assert dim.num_sketches == 0

    def test_estimated_spread_consistent(self):
        graph = TDNGraph()
        dim = DIMIndex(1, graph, seed=5, beta=16.0, max_sketches=2_000)
        batch = []
        for _ in range(40):
            batch.append(Interaction("hub", "a", 0, 9))
            batch.append(Interaction("hub", "b", 0, 9))
        graph.add_batch(batch)
        dim.on_batch(0, batch)
        # hub activates a and b with probability ~1: spread ~3 of 3 nodes.
        assert dim.estimated_spread(["hub"]) == pytest.approx(3.0, abs=0.3)


#: A short DIM replay printing every step's seeds, value and pool size.
DIM_REPLAY = """
from repro.baselines.dim import DIMIndex
from repro.datasets.registry import make_interactions
from repro.tdn.graph import TDNGraph
from repro.tdn.lifetimes import GeometricLifetime

policy = GeometricLifetime(0.2, 50, seed=7)
graph = TDNGraph()
dim = DIMIndex(5, graph, beta=4.0, seed=0, max_sketches=600)
steps = {}
for row in make_interactions("twitter-higgs", 900, seed=0, events_per_step=3):
    steps.setdefault(row.time, []).append(policy.assign(row))
for t, batch in sorted(steps.items()):
    graph.advance_to(t)
    graph.add_batch(batch)
    dim.on_batch(t, batch)
    solution = dim.query()
    print(t, solution.nodes, solution.value, dim.num_sketches)
"""


def test_dim_gives_the_same_results_under_every_hash_seed():
    """String hashing is salted per process; DIM's draws must not follow
    set order, or two processes replaying one stream diverge."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", DIM_REPLAY],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            timeout=300,
            check=True,
        ).stdout
        for hash_seed in ("0", "1")
    ]
    assert outputs[0] and outputs[0] == outputs[1]
