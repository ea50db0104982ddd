"""Unit tests for the InfluenceTracker facade and Solution type."""

import pytest

from repro.core.tracker import InfluenceTracker, Solution
from repro.errors import ConfigError, ConfigTypeError
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import ConstantLifetime, GeometricLifetime
from repro.tdn.stream import MemoryStream


class TestSolution:
    def test_empty(self):
        solution = Solution.empty(7)
        assert solution.nodes == ()
        assert solution.value == 0.0
        assert solution.time == 7

    def test_frozen(self):
        solution = Solution(nodes=("a",), value=1.0, time=0)
        with pytest.raises(AttributeError):
            solution.value = 2.0


class TestStep:
    def test_tuples_coerced(self):
        tracker = InfluenceTracker("sieve-adn", k=2, epsilon=0.2)
        solution = tracker.step(0, [("a", "b"), ("a", "c", 5)])
        assert "a" in solution.nodes
        assert solution.value == 3.0

    def test_interactions_accepted(self):
        tracker = InfluenceTracker("sieve-adn", k=1, epsilon=0.2)
        solution = tracker.step(0, [Interaction("a", "b", 0)])
        assert solution.nodes == ("a",)

    def test_bad_item_rejected(self):
        tracker = InfluenceTracker("sieve-adn", k=1, epsilon=0.2)
        with pytest.raises(TypeError, match="interaction"):
            tracker.step(0, ["nonsense"])

    def test_non_increasing_time_rejected(self):
        tracker = InfluenceTracker("sieve-adn", k=1, epsilon=0.2)
        tracker.step(1, [("a", "b")])
        with pytest.raises(ValueError, match="strictly increasing"):
            tracker.step(1, [("a", "c")])

    def test_lifetime_policy_applied(self):
        tracker = InfluenceTracker(
            "hist-approx", k=1, epsilon=0.2, lifetime_policy=ConstantLifetime(2)
        )
        tracker.step(0, [("a", "b")])
        tracker.step(1, [])
        assert tracker.query().value == 2.0
        tracker.step(2, [])  # the edge expires at t=2
        assert tracker.query().value == 0.0

    def test_explicit_lifetime_overrides_policy(self):
        tracker = InfluenceTracker(
            "hist-approx", k=1, epsilon=0.2, lifetime_policy=ConstantLifetime(1)
        )
        tracker.step(0, [("a", "b", 10)])
        tracker.step(5, [])
        assert tracker.query().value == 2.0


class TestStepValidation:
    """A rejected step changes nothing: the clock, the graph, the answer."""

    def started(self):
        tracker = InfluenceTracker("hist-approx", k=2, epsilon=0.2)
        tracker.step(0, [("a", "b", 3), ("b", "c", 9)])
        return tracker

    def snapshot(self, tracker):
        graph = tracker.graph
        return (graph.time, graph.version, graph.num_edges, tracker.query())

    @pytest.mark.parametrize(
        "t, items, error, match",
        [
            # The self-loop comes after a valid edge, and t = 5 expires
            # ("a", "b"): neither may happen.
            (5, [("x", "y", 2), ("c", "c", 2)], ConfigError, "self-loop"),
            (1.5, [], ConfigTypeError, "step time must be an int"),
            (True, [], ConfigTypeError, "step time must be an int"),
            ("3", [], ConfigTypeError, "step time must be an int"),
            (-1, [], ConfigError, ">= 0"),
            (0, [("x", "y")], ConfigError, "strictly increasing"),
            (5, [("x", "y", 0)], ConfigError, "lifetime must be >= 1"),
            (5, [("x", "y", 2.0)], ConfigTypeError, "lifetime must be an int"),
            (5, [("x", "y", True)], ConfigTypeError, "lifetime must be an int"),
            (5, [("x", "y", 1, 2)], ConfigTypeError, "cannot interpret"),
            (5, ["nonsense"], ConfigTypeError, "cannot interpret"),
            (5, [Interaction("x", "y", 1, 2)], ConfigError, "not alive"),
            (5, [Interaction("x", "y", 6, 2)], ConfigError, "not alive"),
        ],
    )
    def test_rejected_step_changes_nothing(self, t, items, error, match):
        tracker = self.started()
        before = self.snapshot(tracker)
        with pytest.raises(error, match=match):
            tracker.step(t, items)
        assert self.snapshot(tracker) == before
        # The tracker still takes the next valid step.
        assert tracker.step(5, [("x", "y", 2)]).time == 5

    def test_errors_keep_their_builtin_types(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigTypeError, TypeError)

    def test_graph_ahead_of_the_tracker_is_rejected(self):
        graph = TDNGraph(start_time=10)
        tracker = InfluenceTracker("sieve-adn", k=1, epsilon=0.2, graph=graph)
        with pytest.raises(ConfigError, match="graph is at time 10"):
            tracker.step(5, [("a", "b")])
        assert graph.time == 10 and graph.version == 0

    def test_rejected_step_draws_no_lifetime(self):
        policy = GeometricLifetime(0.2, 50, seed=3)
        twin = GeometricLifetime(0.2, 50, seed=3)
        tracker = InfluenceTracker("hist-approx", k=1, epsilon=0.2, lifetime_policy=policy)
        with pytest.raises(ConfigError):
            tracker.step(0, [("a", "b"), ("c", "c")])
        tracker.step(0, [("a", "b")])
        (expiry,) = tracker.graph._expiry_buckets  # noqa: SLF001 - test probe
        assert expiry == twin.draw(Interaction("a", "b", 0))

    @pytest.mark.parametrize(
        "items, match",
        [
            ([("x", "y", 2), ("p", "q", 6)], "6 steps left at time 5"),
            ([("x", "y", 2), ("p", "q")], "never expires"),
            ([Interaction("p", "q", 5)], "never expires"),
        ],
    )
    def test_lifetime_past_the_bound_changes_nothing(self, items, match):
        tracker = InfluenceTracker("basic-reduction", k=2, epsilon=0.2, L=5)
        tracker.step(0, [("a", "b", 3), ("b", "c", 5)])
        before = self.snapshot(tracker)
        with pytest.raises(ConfigError, match=match):
            tracker.step(5, items)
        assert self.snapshot(tracker) == before
        assert tracker.step(5, [("x", "y", 5)]).time == 5
        assert tracker.graph.num_edges == 1

    def test_late_stamped_interaction_keeps_its_expiry(self):
        tracker = InfluenceTracker("sieve-adn", k=1, epsilon=0.2)
        tracker.step(3, [("x", "y", 50)])
        tracker.step(5, [Interaction("a", "b", 3, 4)])
        assert tracker.graph.max_expiry("a", "b") == 7


class TestAlgorithmSelection:
    @pytest.mark.parametrize(
        "name",
        ["hist-approx", "sieve-adn", "greedy", "random", "HIST_APPROX", "SieveADN"],
    )
    def test_known_names(self, name):
        tracker = InfluenceTracker(name, k=1, epsilon=0.2)
        tracker.step(0, [("a", "b")])
        assert tracker.query().value >= 1.0

    def test_basic_reduction_requires_L(self):
        with pytest.raises(ValueError, match="L"):
            InfluenceTracker("basic-reduction", k=1, epsilon=0.2)

    def test_basic_reduction_with_L(self):
        tracker = InfluenceTracker(
            "basic-reduction", k=1, epsilon=0.2, L=5,
            lifetime_policy=ConstantLifetime(3),
        )
        solution = tracker.step(0, [("a", "b")])
        assert solution.nodes == ("a",)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            InfluenceTracker("quantum-sieve")

    def test_factory_callable(self):
        from repro.core.sieve_adn import SieveADN

        tracker = InfluenceTracker(
            lambda graph, oracle: SieveADN(1, 0.2, graph, oracle)
        )
        solution = tracker.step(0, [("a", "b")])
        assert solution.nodes == ("a",)


class TestRun:
    def test_run_over_stream(self):
        events = [Interaction("a", "b", 0), Interaction("a", "c", 1)]
        tracker = InfluenceTracker("hist-approx", k=1, epsilon=0.2)
        results = list(tracker.run(MemoryStream(events)))
        assert [t for t, _ in results] == [0, 1]
        assert results[-1][1].value == 3.0

    def test_oracle_calls_exposed(self):
        tracker = InfluenceTracker("hist-approx", k=1, epsilon=0.2)
        tracker.step(0, [("a", "b")])
        assert tracker.oracle_calls > 0

    def test_geometric_policy_end_to_end(self):
        tracker = InfluenceTracker(
            "hist-approx", k=2, epsilon=0.2,
            lifetime_policy=GeometricLifetime(0.2, 20, seed=3),
        )
        for t in range(10):
            tracker.step(t, [(f"s{t % 3}", f"t{t}")])
        assert len(tracker.query().nodes) <= 2
