"""Unit tests for the changed-node set ``V_t-bar`` computation."""

import pytest

from repro.influence.changed import changed_nodes
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class TestModes:
    def test_ancestors_mode_includes_upstream(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("up", "a", 0, 9))
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        assert set(changed_nodes(graph, batch)) == {"up", "a"}

    def test_empty_batch(self):
        assert changed_nodes(TDNGraph(), []) == []

    def test_deterministic_order_is_interned_id_order(self):
        graph = TDNGraph()
        # "b" is interned before "a", so it sorts first (first-appearance
        # order, not lexicographic repr order).
        batch = [Interaction("b", "x", 0, 5), Interaction("a", "y", 0, 5)]
        graph.add_batch(batch)
        assert changed_nodes(graph, batch) == ["b", "a"]
        assert graph.node_id("b") < graph.node_id("a")

    def test_uninterned_nodes_sort_after_interned_by_repr(self):
        graph = TDNGraph()
        graph.add_batch([Interaction("z", "y", 0, 5)])
        # Batch not inserted (contract violation, but the ordering must
        # still be deterministic): sources never interned fall back to repr.
        phantom = [Interaction("b", "q", 0, 5), Interaction("a", "q", 0, 5)]
        ordered = changed_nodes(graph, phantom + [Interaction("z", "x", 0, 5)])
        assert ordered == ["z", "a", "b"]


class TestBackends:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            changed_nodes(TDNGraph(), [], backend="sparse")

    def test_csr_and_dict_backends_agree(self):
        import random

        rng = random.Random(13)
        graph = TDNGraph()
        t = 0
        graph.csr()  # live engine: ancestors run on transpose + overlay
        for step in range(120):
            if rng.random() < 0.2:
                t += rng.randint(1, 3)
                graph.advance_to(t)
            u, v = rng.sample(range(15), 2)
            batch = [Interaction(f"n{u}", f"n{v}", t, rng.randint(1, 12))]
            graph.add_batch(batch)
            for min_expiry in (None, t + 2):
                via_dict = changed_nodes(graph, batch, min_expiry, backend="dict")
                via_csr = changed_nodes(graph, batch, min_expiry, backend="csr")
                assert via_csr == via_dict  # same set, same order


class TestSupersetProperty:
    def test_ancestors_superset_covers_all_spread_changes(self):
        """Every node whose spread changed must be in the ancestors set.

        Build a graph, record all nodes' spreads, insert a batch, and check
        that any node whose spread changed is reported.
        """
        graph = TDNGraph()
        base = [
            Interaction("a", "b", 0, 9),
            Interaction("b", "c", 0, 9),
            Interaction("x", "y", 0, 9),
        ]
        graph.add_batch(base)
        oracle = InfluenceOracle(graph)
        before = {n: oracle.spread([n]) for n in graph.node_set()}
        batch = [Interaction("c", "x", 0, 9)]
        graph.add_batch(batch)
        oracle_after = InfluenceOracle(graph)
        changed = set(changed_nodes(graph, batch))
        for node, old in before.items():
            if oracle_after.spread([node]) != old:
                assert node in changed, f"{node} changed but was not reported"

    def test_horizon_filter_limits_ancestry(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("up", "a", 0, 2))  # expiry 2
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        # At horizon 5 the up->a edge is invisible.
        assert set(changed_nodes(graph, batch, min_expiry=5)) == {"a"}
        assert set(changed_nodes(graph, batch, min_expiry=None)) == {"up", "a"}

    def test_paths_through_same_batch_count(self):
        graph = TDNGraph()
        batch = [Interaction("a", "b", 0, 9), Interaction("b", "c", 0, 9)]
        graph.add_batch(batch)
        # a reaches b through the first edge of the same batch, so a is an
        # ancestor of source b as well.
        changed = set(changed_nodes(graph, batch))
        assert changed == {"a", "b"}
