"""Unit and behavioural tests for HISTAPPROX (paper Alg. 3)."""

import math
import random

from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.tracker import InfluenceTracker
from repro.influence.oracle import InfluenceOracle
from repro.submodular.functions import SpreadFunction
from repro.submodular.greedy import brute_force_optimum
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.stream import MemoryStream


def drive(events, k=2, epsilon=0.1, check=None, **kwargs):
    graph = TDNGraph()
    hist = HistApprox(k, epsilon, graph, **kwargs)
    for t, batch in MemoryStream(events, fill_gaps=True):
        graph.advance_to(t)
        graph.add_batch(batch)
        hist.on_batch(t, batch)
        if check is not None:
            check(graph, hist, t)
    return graph, hist


def random_events(rng, num_nodes=7, steps=10, max_lifetime=6):
    events = []
    for t in range(steps):
        for _ in range(rng.randint(1, 3)):
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u != v:
                events.append(
                    Interaction(f"n{u}", f"n{v}", t, rng.randint(1, max_lifetime))
                )
    return events


class TestInstanceManagement:
    def test_instance_created_per_new_lifetime(self):
        events = [
            Interaction("a", "b", 0, 2),
            Interaction("c", "d", 0, 5),
        ]
        _, hist = drive(events)
        assert hist.horizons() == [2, 5]

    def test_existing_horizon_reused(self):
        events = [
            Interaction("a", "b", 0, 3),
            Interaction("c", "d", 0, 3),
        ]
        _, hist = drive(events)
        assert hist.horizons() == [3]

    def test_instances_expire_with_clock(self):
        events = [Interaction("a", "b", 0, 2), Interaction("c", "d", 0, 6)]
        graph, hist = drive(events)
        graph.advance_to(3)
        hist.on_batch(3, [])
        assert hist.horizons() == [6]

    def test_indices_are_relative_horizons(self):
        events = [Interaction("a", "b", 0, 4)]
        graph, hist = drive(events)
        assert hist.indices() == [4 - graph.time]

    def test_infinite_lifetime_owns_inf_horizon(self):
        events = [Interaction("a", "b", 0), Interaction("c", "d", 0, 3)]
        _, hist = drive(events)
        assert hist.horizons() == [3, math.inf]

    def test_infinite_horizon_instance_never_expires(self):
        events = [Interaction("a", "b", 0)]
        graph, hist = drive(events)
        graph.advance_to(1000)
        hist.on_batch(1000, [])
        assert hist.horizons() == [math.inf]
        assert hist.query().value == 2.0


class TestLifetimeLeft:
    def test_late_stamped_arrival_is_indexed_by_its_expiry(self):
        # Stamped at 3 with lifetime 4, the edge expires at 7: at t = 5 it
        # has 2 steps left, so its group's horizon is 7, not 5 + 4.
        tracker = InfluenceTracker("hist-approx", k=2, epsilon=0.2)
        tracker.step(3, [("x", "y", 50)])
        solution = tracker.step(5, [Interaction("a", "b", 3, 4)])
        assert tracker.algorithm.horizons() == [7, 53]
        # Under horizon 9 the head could not see a -> b and read 3.
        assert (set(solution.nodes), solution.value) == ({"a", "x"}, 4.0)


class TestSuccessorCopyFill:
    def test_new_head_backfills_from_successor(self):
        """Fig. 6(c): a later, shorter lifetime copies its successor and is
        fed the alive edges in the gap."""
        events = [
            Interaction("long", "x", 0, 10),   # horizon 10 instance
            Interaction("mid", "y", 1, 5),     # expiry 6
            Interaction("short", "z", 2, 2),   # expiry 4 -> new horizon 4
        ]
        graph, hist = drive(events, k=3)
        # The horizon-4 instance must know about edges with expiry in [4,6)
        # (mid->y, expiry 6 >= 6? no: 6 is not < 6... check [4, 10): mid).
        # Its view (expiry >= 4) contains all three edges; after the fill it
        # must have had the chance to select all three sources.
        solution = hist.query()
        assert solution.value == 6.0
        assert set(solution.nodes) == {"long", "mid", "short"}

    def test_successorless_creation_starts_empty(self):
        """Fig. 6(b): the largest horizon tops every alive expiry, so a new
        max-horizon instance has nothing to backfill."""
        events = [
            Interaction("a", "b", 0, 2),
            Interaction("c", "d", 1, 9),  # horizon 10 > all previous expiries
        ]
        _, hist = drive(events)
        # The new horizon-10 instance sees only edges with expiry >= 10:
        # exactly the c->d edge.
        top = hist._instances[max(hist.horizons())]
        assert top.query().nodes == ("c",)


class TestRedundancyRemoval:
    def test_close_values_collapse(self):
        """Instances whose outputs are eps-close to a neighbour get pruned.

        g decreases by exactly 1 from horizon 2 (value 11) to horizon 11
        (value 2); with eps=0.5 the anchor at the head makes every instance
        down to value ~5.5 redundant, so far fewer than the 10 created
        instances survive.
        """
        events = [Interaction("hub", f"x{l}", 0, l) for l in range(2, 12)]
        _, hist = drive(events, k=1, epsilon=0.5)
        assert 0 < hist.num_instances < 10

    def test_small_epsilon_keeps_distinct_instances(self):
        """With step-1 value differences and eps=0.1, nothing is redundant
        (removal needs g(j) >= 0.9 g(i) for j >= i+2, i.e. g(i) >= 20)."""
        events = [Interaction("hub", f"x{l}", 0, l) for l in range(2, 12)]
        _, hist = drive(events, k=1, epsilon=0.1)
        assert hist.num_instances == 10

    def test_smooth_histogram_invariant(self):
        """After removal: g(x_{i+2}) < (1 - eps) g(x_i) (Theorem 8's size
        argument), asserted on the cached readouts the algorithm actually
        uses for redundancy decisions."""
        rng = random.Random(5)
        eps = 0.2

        def check(graph, hist, t):
            values = [
                hist._instances[h].query_value_cached() for h in hist.horizons()
            ]
            for i in range(len(values) - 2):
                assert values[i + 2] < (1 - eps) * values[i] + 1e-9 or (
                    values[i] == 0
                )

        for _ in range(8):
            drive(random_events(rng), k=2, epsilon=eps, check=check)

    def test_head_and_max_never_removed(self):
        events = [Interaction("hub", f"x{l}", 0, l) for l in range(2, 12)]
        _, hist = drive(events, k=1, epsilon=0.5)
        horizons = hist.horizons()
        assert 2 in horizons       # head survives
        assert 11 in horizons      # max survives


class TestApproximationGuarantee:
    def test_third_minus_eps_on_random_tdns(self):
        """Theorem 7: (1/3 - eps) OPT at every time step."""
        rng = random.Random(11)
        k, eps = 2, 0.1

        def check(graph, hist, t):
            oracle = InfluenceOracle(graph)
            optimum = brute_force_optimum(
                SpreadFunction(oracle), sorted(graph.node_set(), key=repr), k
            )
            if optimum.value > 0:
                ratio = hist.query().value / optimum.value
                assert ratio >= (1.0 / 3.0 - eps) - 1e-9

        for _ in range(15):
            drive(random_events(rng), k=k, epsilon=eps, check=check)

    def test_tracks_basic_reduction_closely(self):
        """Fig. 7's headline: value within a few percent of BASICREDUCTION."""
        rng = random.Random(13)
        total_hist, total_basic = 0.0, 0.0
        for _ in range(10):
            events = random_events(rng, num_nodes=10, steps=12, max_lifetime=6)
            graph_b = TDNGraph()
            basic = BasicReduction(2, 0.1, 6, graph_b)
            graph_h = TDNGraph()
            hist = HistApprox(2, 0.1, graph_h)
            for t, batch in MemoryStream(events, fill_gaps=True):
                for graph, algo in ((graph_b, basic), (graph_h, hist)):
                    graph.advance_to(t)
                    graph.add_batch(batch)
                    algo.on_batch(t, batch)
                total_hist += hist.query().value
                total_basic += basic.query().value
        assert total_hist >= 0.9 * total_basic


class TestHeadRefinement:
    def test_refinement_never_hurts(self):
        rng = random.Random(17)
        for _ in range(8):
            events = random_events(rng)
            graph_a = TDNGraph()
            plain = HistApprox(2, 0.2, graph_a, refine_head=False)
            graph_b = TDNGraph()
            refined = HistApprox(2, 0.2, graph_b, refine_head=True)
            for t, batch in MemoryStream(events, fill_gaps=True):
                for graph, algo in ((graph_a, plain), (graph_b, refined)):
                    graph.advance_to(t)
                    graph.add_batch(batch)
                    algo.on_batch(t, batch)
                assert refined.query().value >= plain.query().value - 1e-9

    def test_refinement_covers_unprocessed_short_edges(self):
        """Craft a head that misses short-lifetime edges; refinement sees
        them."""
        graph = TDNGraph()
        hist = HistApprox(2, 0.5, graph, refine_head=True)
        # t=0: one long edge creates horizon 8.
        graph.advance_to(0)
        batch0 = [Interaction("long", "x", 0, 8)]
        graph.add_batch(batch0)
        hist.on_batch(0, batch0)
        # t=1: a short edge creates horizon 3; then expire it from the
        # histogram by advancing past it while the long instance remains.
        graph.advance_to(1)
        batch1 = [Interaction("short", "y", 1, 2)]
        graph.add_batch(batch1)
        hist.on_batch(1, batch1)
        graph.advance_to(2)
        hist.on_batch(2, [Interaction("late", "z", 2, 1)])
        graph.add_interaction(Interaction("late", "z", 2, 1))
        solution = hist.query()
        assert solution.value >= 2.0


class TestQueryEdgeCases:
    def test_query_empty(self):
        graph = TDNGraph()
        hist = HistApprox(2, 0.2, graph)
        assert hist.query().value == 0.0

    def test_query_after_total_expiry(self):
        events = [Interaction("a", "b", 0, 1)]
        graph, hist = drive(events)
        graph.advance_to(10)
        assert hist.query().value == 0.0
        assert hist.horizons() == []


class _FixedValueInstance:
    """Stub standing in for a SieveADN: a frozen cached readout."""

    def __init__(self, value):
        self.value = value

    def query_value_cached(self):
        return self.value


def hist_with_values(values, epsilon=0.2):
    """A HistApprox whose histogram is exactly ``values`` at horizons 10i."""
    hist = HistApprox(2, epsilon, TDNGraph())
    hist._horizons = [10 * (i + 1) for i in range(len(values))]
    hist._instances = {
        h: _FixedValueInstance(v) for h, v in zip(hist._horizons, values)
    }
    return hist


class TestReduceRedundancy:
    def test_deletes_sandwiched_eps_close_indices(self):
        # cutoff(100) = 80: indices valued 95 and 90 are sandwiched between
        # 100 and 85 (>= 80), so both are deleted; 40 breaks the run.
        hist = hist_with_values([100, 95, 90, 85, 40], epsilon=0.2)
        hist._reduce_redundancy()
        assert [hist._instances[h].value for h in hist._horizons] == [100, 85, 40]

    def test_keeps_well_separated_histogram(self):
        hist = hist_with_values([100, 70, 45, 25, 10], epsilon=0.2)
        before = list(hist._horizons)
        hist._reduce_redundancy()
        assert hist._horizons == before

    def test_head_is_never_deleted(self):
        # All values equal: everything between head and tail is redundant,
        # but the head itself must survive as the first anchor.
        hist = hist_with_values([50, 50, 50, 50, 50], epsilon=0.2)
        head = hist._horizons[0]
        hist._reduce_redundancy()
        assert hist._horizons[0] == head
        assert [hist._instances[h].value for h in hist._horizons] == [50, 50]

    def test_chained_anchors_do_not_over_delete(self):
        # 100 keeps 81 (>= 80); anchored at 81, 66 (>= 64.8) is its probe
        # end; deletion must respect each anchor's own cutoff, not the
        # head's (transitively everything is eps-close, pairwise not).
        hist = hist_with_values([100, 81, 66, 54], epsilon=0.2)
        hist._reduce_redundancy()
        assert [hist._instances[h].value for h in hist._horizons] == [100, 81, 66, 54]

    def test_short_histograms_untouched(self):
        for values in ([], [10], [10, 5]):
            hist = hist_with_values(values)
            before = list(hist._horizons)
            hist._reduce_redundancy()
            assert hist._horizons == before

    def test_instances_dict_stays_in_sync(self):
        hist = hist_with_values([100, 99, 98, 97, 30], epsilon=0.1)
        hist._reduce_redundancy()
        assert set(hist._instances) == set(hist._horizons)

    def test_forward_pass_is_linear(self):
        # The pass must not rescan the whole histogram per anchor: count
        # value readouts, which the O(H) pass does exactly once per index.
        class CountingInstance(_FixedValueInstance):
            reads = 0

            def query_value_cached(self):
                CountingInstance.reads += 1
                return self.value

        values = [1000.0 / (i + 1) for i in range(200)]
        hist = HistApprox(2, 0.1, TDNGraph())
        hist._horizons = list(range(1, len(values) + 1))
        hist._instances = {
            h: CountingInstance(v) for h, v in zip(hist._horizons, values)
        }
        CountingInstance.reads = 0
        hist._reduce_redundancy()
        assert CountingInstance.reads == len(values)


class TestReduceRedundancyOnStreams:
    def test_head_survives_every_batch(self, seed=3):
        rng = random.Random(seed)
        events = random_events(rng, num_nodes=8, steps=14, max_lifetime=8)

        def check(graph, hist, t):
            if hist._horizons:
                assert hist._horizons[0] > t
                assert set(hist._instances) == set(hist._horizons)
                assert hist._horizons == sorted(hist._horizons)

        drive(events, k=2, epsilon=0.3, check=check)
