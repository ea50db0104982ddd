"""Tests for the weighted influence objective (the paper's f_t hook)."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.hist_approx import HistApprox
from repro.errors import ConfigError
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NODES = [f"n{i}" for i in range(6)]


def weighted_oracle(graph, weights=None, **kwargs):
    """An oracle scoring reached nodes by ``weights`` (``weighted_sum``)."""
    return InfluenceOracle(graph, semantics="weighted_sum", weights=weights, **kwargs)


def star_graph():
    graph = TDNGraph()
    for i in range(3):
        graph.add_interaction(Interaction("hub", f"leaf{i}", 0, 9))
    return graph


class TestBasics:
    def test_unit_weights_match_unweighted_oracle(self):
        graph = star_graph()
        weighted = weighted_oracle(graph)
        plain = InfluenceOracle(graph)
        for seeds in (["hub"], ["leaf0"], ["hub", "leaf1"]):
            assert weighted.spread(seeds) == plain.spread(seeds)

    def test_mapping_weights(self):
        graph = star_graph()
        oracle = weighted_oracle(graph, {"leaf0": 10.0}, default_weight=1.0)
        # hub reaches hub(1) + leaf0(10) + leaf1(1) + leaf2(1) = 13.
        assert oracle.spread(["hub"]) == 13.0

    def test_callable_weights(self):
        graph = star_graph()
        oracle = weighted_oracle(
            graph, lambda n: 5.0 if str(n).startswith("leaf") else 0.0
        )
        assert oracle.spread(["hub"]) == 15.0

    def test_zero_weight_excludes_value(self):
        graph = star_graph()
        oracle = weighted_oracle(graph, {"hub": 0.0})
        assert oracle.spread(["hub"]) == 3.0

    def test_empty_set_normalized(self):
        oracle = weighted_oracle(star_graph())
        assert oracle.spread([]) == 0.0
        assert oracle.calls == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            weighted_oracle(star_graph(), {"hub": -1.0})
        with pytest.raises(ValueError):
            weighted_oracle(star_graph(), default_weight=-2.0)

    def test_caching_and_counting(self):
        oracle = weighted_oracle(star_graph(), {"leaf0": 2.0})
        oracle.spread(["hub"])
        oracle.spread(["hub"])
        assert oracle.calls == 1

    def test_marginal_gain(self):
        graph = star_graph()
        graph.add_interaction(Interaction("solo", "other", 0, 9))
        oracle = weighted_oracle(graph, {"other": 7.0})
        assert oracle.marginal_gain(["hub"], "solo") == 8.0
        assert oracle.marginal_gain(["hub"], "hub") == 0.0


class TestBackends:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            weighted_oracle(star_graph(), backend="sparse")

    def test_csr_and_dict_backends_agree_on_random_streams(self):
        rng = random.Random(31)
        graph = TDNGraph()
        graph.csr()  # live engine: spreads run on base + overlay
        t = 0
        weights = {f"n{i}": rng.uniform(0.0, 9.0) for i in range(12)}
        csr = weighted_oracle(graph, weights, backend="csr")
        ref = weighted_oracle(graph, weights, backend="dict")
        for _ in range(100):
            if rng.random() < 0.2:
                t += rng.randint(1, 3)
                graph.advance_to(t)
            u, v = rng.sample(range(12), 2)
            graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, rng.randint(1, 10)))
            seeds = [f"n{i}" for i in rng.sample(range(12), rng.randint(1, 3))]
            for horizon in (None, t + 2):
                assert csr.spread(seeds, horizon) == ref.spread(seeds, horizon)
        assert csr.calls == ref.calls

    def test_csr_path_handles_uninterned_seeds(self):
        graph = star_graph()
        oracle = weighted_oracle(graph, {"ghost": 4.0}, backend="csr")
        # "ghost" was never interned: it reaches only itself.
        assert oracle.spread(["ghost"]) == 4.0
        assert oracle.spread(["ghost", "hub"]) == 8.0  # 4 + hub's 4 unit reach

    def test_weights_require_weighted_sum(self):
        for semantics in ("count", "hop_discount"):
            with pytest.raises(ConfigError, match="only meaningful"):
                InfluenceOracle(star_graph(), semantics=semantics, weights={"hub": 2.0})

    def test_csr_path_rejects_negative_callable_weight(self):
        graph = star_graph()
        oracle = weighted_oracle(
            graph, lambda n: -1.0 if n == "leaf2" else 1.0, backend="csr"
        )
        with pytest.raises(ValueError, match="negative"):
            oracle.spread(["hub"])


class TestSubmodularityProperties:
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        small=st.sets(st.sampled_from(NODES), max_size=2),
        extra=st.sets(st.sampled_from(NODES), max_size=2),
        candidate=st.sampled_from(NODES),
        horizon=st.one_of(st.none(), st.integers(1, 10)),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        lam=st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_weighted_spread_monotone_submodular(
        self, seed, small, extra, candidate, horizon, alpha, lam
    ):
        """Theorem 1 must hold for every fold: ``count``, ``weighted_sum``,
        ``hop_discount`` with alpha in (0, 1] and ``time_decay`` with
        lam > 0, at any horizon."""
        rng = random.Random(seed)
        graph = TDNGraph()
        for _ in range(rng.randint(1, 12)):
            u, v = rng.sample(range(len(NODES)), 2)
            graph.add_interaction(Interaction(NODES[u], NODES[v], 0, rng.randint(1, 9)))
        weights = {node: rng.uniform(0.0, 5.0) for node in NODES}
        oracles = [
            InfluenceOracle(graph),
            weighted_oracle(graph, weights),
            InfluenceOracle(graph, semantics=("hop_discount", {"alpha": alpha})),
            InfluenceOracle(graph, semantics=("time_decay", {"lam": lam})),
        ]
        large = small | extra
        for oracle in oracles:

            def spread(seeds, oracle=oracle):
                return oracle.spread(seeds, horizon)

            # Monotone.
            assert spread(large | {candidate}) >= spread(large) - 1e-9
            # Submodular.
            gain_small = spread(small | {candidate}) - spread(small)
            gain_large = spread(large | {candidate}) - spread(large)
            assert gain_small >= gain_large - 1e-9


class TestTrackersWithWeightedObjective:
    def test_hist_approx_chases_weighted_value(self):
        """With a huge weight on one target, the tracker must prefer the
        otherwise-minor influencer that reaches it."""
        graph = TDNGraph()
        oracle = weighted_oracle(graph, {"vip": 100.0})
        hist = HistApprox(1, 0.2, graph, oracle)
        batch = [Interaction("popular", f"x{i}", 0, 9) for i in range(5)]
        batch.append(Interaction("minor", "vip", 0, 9))
        graph.add_batch(batch)
        hist.on_batch(0, batch)
        assert hist.query().nodes == ("minor",)
        assert hist.query().value == 101.0

    def test_unit_weighted_tracker_matches_plain(self):
        rng = random.Random(5)
        events = []
        for t in range(8):
            for _ in range(rng.randint(1, 3)):
                u, v = rng.sample(range(len(NODES)), 2)
                events.append(Interaction(NODES[u], NODES[v], t, rng.randint(1, 6)))
        graph_a, graph_b = TDNGraph(), TDNGraph()
        plain = HistApprox(2, 0.2, graph_a)
        weighted = HistApprox(2, 0.2, graph_b, weighted_oracle(graph_b))
        by_time = {}
        for e in events:
            by_time.setdefault(e.time, []).append(e)
        for t in sorted(by_time):
            for graph, algo in ((graph_a, plain), (graph_b, weighted)):
                graph.advance_to(t)
                graph.add_batch(by_time[t])
                algo.on_batch(t, by_time[t])
        assert plain.query().value == weighted.query().value
        assert plain.query().nodes == weighted.query().nodes
