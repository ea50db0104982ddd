"""Unit and behavioural tests for BASICREDUCTION (paper Alg. 2)."""

import random

import pytest

from repro.core.basic_reduction import BasicReduction
from repro.errors import ConfigError
from repro.influence.oracle import InfluenceOracle
from repro.submodular.functions import SpreadFunction
from repro.submodular.greedy import brute_force_optimum
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.stream import MemoryStream


def drive(events, k=2, epsilon=0.1, L=6, check=None):
    graph = TDNGraph()
    basic = BasicReduction(k, epsilon, L, graph)
    for t, batch in MemoryStream(events, fill_gaps=True):
        graph.advance_to(t)
        graph.add_batch(batch)
        basic.on_batch(t, batch)
        if check is not None:
            check(graph, basic, t)
    return graph, basic


class TestInstanceBookkeeping:
    def test_maintains_L_instances(self):
        events = [Interaction("a", "b", 0, 3)]
        _, basic = drive(events, L=5)
        assert basic.num_instances == 5

    def test_horizons_contiguous(self):
        events = [Interaction("a", "b", 0, 3), Interaction("b", "c", 2, 4)]
        graph, basic = drive(events, L=5)
        t = graph.time
        assert basic.horizons() == list(range(t + 1, t + 6))

    def test_time_gap_rebuilds_instances(self):
        graph = TDNGraph()
        basic = BasicReduction(2, 0.1, 4, graph)
        graph.advance_to(0)
        batch0 = [Interaction("a", "b", 0, 4)]
        graph.add_batch(batch0)
        basic.on_batch(0, batch0)
        graph.advance_to(10)  # long quiet gap
        batch1 = [Interaction("c", "d", 10, 2)]
        graph.add_batch(batch1)
        basic.on_batch(10, batch1)
        assert basic.horizons() == [11, 12, 13, 14]

    def test_lifetime_above_L_rejected(self):
        graph = TDNGraph()
        basic = BasicReduction(2, 0.1, 3, graph)
        graph.advance_to(0)
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        with pytest.raises(ValueError, match="lifetimes in"):
            basic.on_batch(0, batch)

    def test_lifetime_is_read_as_what_is_left(self):
        # Stamped at 3 with lifetime 6 (above L = 5), the edge has 4 steps
        # left at t = 5: BasicReduction takes it.
        graph = TDNGraph()
        basic = BasicReduction(2, 0.1, 5, graph)
        graph.advance_to(5)
        batch = [Interaction("a", "b", 3, 6)]
        graph.add_batch(batch)
        basic.on_batch(5, batch)
        assert basic.query().nodes == ("a",)
        graph.advance_to(6)
        too_long = [Interaction("c", "d", 6, 6)]
        graph.add_batch(too_long)
        with pytest.raises(ValueError, match="6 steps left at time 6"):
            basic.on_batch(6, too_long)

    def test_infinite_lifetime_rejected(self):
        graph = TDNGraph()
        basic = BasicReduction(2, 0.1, 3, graph)
        graph.advance_to(0)
        batch = [Interaction("a", "b", 0)]
        graph.add_batch(batch)
        with pytest.raises(ValueError):
            basic.on_batch(0, batch)


class TestPaperExample6:
    """The worked example of Section III-B: who processes which edges."""

    def test_head_instance_sees_all_alive_edges(self):
        """A_1 at any t processed exactly the edges alive at t.

        Verified indirectly: the head's evaluation horizon t+1 admits every
        alive edge, and feeding follows expiry >= horizon, so the head's
        subgraph equals G_t.  Here we check the solution value equals the
        value computed on the full alive graph for a hand-built trace.
        """
        edges_t = [
            ("u1", "u2", 1), ("u1", "u3", 1), ("u1", "u4", 2),
            ("u5", "u3", 3), ("u6", "u4", 1), ("u6", "u7", 1),
        ]
        edges_t1 = [("u5", "u2", 1), ("u7", "u4", 2), ("u7", "u6", 3)]
        events = [Interaction(u, v, 0, lt) for u, v, lt in edges_t]
        events += [Interaction(u, v, 1, lt) for u, v, lt in edges_t1]
        graph, basic = drive(events, k=2, L=3)
        solution = basic.query()
        # At t=1 the alive graph is {u1->u4, u5->u3, u5->u2, u7->u4, u7->u6};
        # the best pair {u5, u7} covers {u5,u3,u2,u7,u4,u6} = 6 nodes, as in
        # the paper's Fig. 2 annotation (influential nodes {u5, u7}).
        assert solution.value == 6.0
        assert set(solution.nodes) == {"u5", "u7"}


class TestApproximationGuarantee:
    def test_half_minus_eps_on_random_tdns(self):
        """Theorem 4: (1/2 - eps) OPT on general TDNs, at every step."""
        rng = random.Random(7)
        k, eps, L = 2, 0.1, 5

        def check(graph, basic, t):
            oracle = InfluenceOracle(graph)
            optimum = brute_force_optimum(
                SpreadFunction(oracle), sorted(graph.node_set(), key=repr), k
            )
            if optimum.value > 0:
                assert basic.query().value >= (0.5 - eps) * optimum.value - 1e-9

        for _ in range(15):
            events = []
            for t in range(10):
                for _ in range(rng.randint(1, 3)):
                    u, v = rng.randrange(6), rng.randrange(6)
                    if u != v:
                        events.append(
                            Interaction(f"n{u}", f"n{v}", t, rng.randint(1, L))
                        )
            drive(events, k=k, epsilon=eps, L=L, check=check)


class TestConstructorValidation:
    def test_unknown_changed_mode_rejected(self):
        with pytest.raises(ConfigError, match="changed_mode"):
            BasicReduction(3, 0.2, 10, TDNGraph(), changed_mode="bogus")

    def test_epsilon_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            BasicReduction(3, 5.0, 10, TDNGraph())


class TestQueries:
    def test_query_before_any_batch(self):
        graph = TDNGraph()
        basic = BasicReduction(2, 0.1, 4, graph)
        assert basic.query().value == 0.0

    def test_query_after_everything_expired(self):
        events = [Interaction("a", "b", 0, 1)]
        graph, basic = drive(events, L=3)
        graph.advance_to(5)
        assert basic.query().value == 0.0

    def test_solution_tracks_decay(self):
        """Influence shifts to the longer-lived hub as the short one dies."""
        events = [Interaction("big", f"x{i}", 0, 1) for i in range(5)]
        events += [Interaction("small", f"y{i}", 0, 3) for i in range(2)]
        events += [Interaction("probe", "z", 1, 1)]
        graph = TDNGraph()
        basic = BasicReduction(1, 0.1, 3, graph)
        for t, batch in MemoryStream(events, fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
            basic.on_batch(t, batch)
            if t == 0:
                assert basic.query().nodes == ("big",)
        # At t=1 the big star expired; small (alive until 3) must win.
        assert basic.query().nodes == ("small",)
