"""Unit and fuzz tests for the CSR reachability engine.

The CSR engine must agree bit-for-bit with the reference dict-of-dict BFS
on every graph shape and horizon — both on its vectorized frontier path
and on the small-graph scalar path (``REPRO_SCALAR_PAIR_LIMIT``, read when an
engine is built, decides which one runs, so the fuzz below pins both).
"""

import math
import random

import pytest

from repro.influence.reachability import reachable_set
from repro.errors import ConfigError
from repro.tdn.csr import CSRSnapshot, DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def random_graph(rng, num_nodes=30, num_events=150, infinite_fraction=0.15):
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.1:
            t += rng.randint(1, 4)
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < infinite_fraction else rng.randint(1, 25)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return graph


class TestBuild:
    def test_empty_graph(self):
        graph = TDNGraph()
        snapshot = CSRSnapshot.build(graph)
        assert snapshot.num_nodes == 0
        assert snapshot.num_pairs == 0
        assert DeltaCSR(graph).reachable_count([]) == 0

    def test_arrays_cover_all_alive_pairs(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("a", "b", 0, 9))  # parallel, max 9
        graph.add_interaction(Interaction("b", "c", 0, None))
        snapshot = CSRSnapshot.build(graph)
        assert snapshot.num_nodes == 3
        assert snapshot.num_pairs == 2
        a, b, c = (graph.node_id(n) for n in "abc")
        row_a = snapshot.indices[snapshot.indptr[a] : snapshot.indptr[a + 1]]
        assert row_a.tolist() == [b]
        expiry_ab = snapshot.expiries[snapshot.indptr[a]]
        assert expiry_ab == 9.0  # per-pair *max* expiry
        row_b = snapshot.indices[snapshot.indptr[b] : snapshot.indptr[b + 1]]
        assert row_b.tolist() == [c]
        assert math.isinf(snapshot.expiries[snapshot.indptr[b]])

    def test_expired_pairs_are_absent(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("b", "c", 0, 10))
        graph.advance_to(5)
        snapshot = CSRSnapshot.build(graph)
        assert snapshot.num_nodes == 3  # interned ids persist
        assert snapshot.num_pairs == 1
        assert DeltaCSR(graph).reachable_count([graph.node_id("a")]) == 1


class TestGraphCaching:
    def test_engine_is_persistent_and_incremental(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 5))
        engine = graph.csr()
        assert graph.csr() is engine  # one engine for the graph's lifetime
        assert engine.compactions == 1  # the initial base build
        graph.add_interaction(Interaction("b", "c", 0, 5))
        synced = graph.csr()
        assert synced is engine  # mutation feeds the overlay, no rebuild
        assert engine.compactions == 1
        assert engine.overlay_entries == 1
        assert synced.version == graph.version
        # The overlay edge is immediately traversable.
        a = graph.node_id("a")
        assert engine.reachable_count([a]) == 3

    def test_stamped_visits_do_not_leak_across_queries(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 5))
        graph.add_interaction(Interaction("c", "d", 0, 5))
        engine = graph.csr()
        a, c = graph.node_id("a"), graph.node_id("c")
        assert engine.reachable_count([a]) == 2
        assert engine.reachable_count([c]) == 2
        assert engine.reachable_count([a, c]) == 4

    def test_out_of_range_ids_rejected(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 5))
        engine = graph.csr()
        with pytest.raises(IndexError):
            engine.reachable_count([99])
        with pytest.raises(IndexError):
            engine.reachable_ids([-1])


class TestEquivalenceFuzz:
    @pytest.mark.parametrize("force_vectorized", [False, True])
    def test_matches_reference_bfs(self, force_vectorized, monkeypatch):
        if force_vectorized:
            monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", "0")
        rng = random.Random(42 + force_vectorized)
        for _ in range(25):
            graph = random_graph(rng)
            engine = graph.csr()
            t = graph.time
            horizons = [None, t + 1, t + rng.randint(1, 30), math.inf]
            nodes = sorted(graph.node_set(), key=repr)
            if not nodes:
                continue
            for _ in range(10):
                seeds = rng.sample(nodes, rng.randint(1, min(4, len(nodes))))
                horizon = rng.choice(horizons)
                expected = reachable_set(graph, seeds, horizon)
                ids = [graph.node_id(s) for s in seeds]
                got = {
                    graph.node_of_id(i)
                    for i in engine.reachable_ids(ids, horizon)
                }
                assert got == expected, (seeds, horizon)
                assert engine.reachable_count(ids, horizon) == len(expected)

    def test_scalar_and_vector_paths_agree(self, monkeypatch):
        rng = random.Random(7)
        graph = random_graph(rng, num_nodes=20, num_events=120)
        ids = list(range(graph.num_interned))
        scalar = graph.csr().reachable_ids(ids[:3], graph.time + 2)
        monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", "0")
        fresh = DeltaCSR(graph)
        assert fresh.scalar_pair_limit == 0
        vector = fresh.reachable_ids(ids[:3], graph.time + 2)
        assert scalar == vector


class TestAdaptiveScalarCutover:
    """Resolution precedence of the fixed scalar/vector cutover."""

    def test_constructor_override_beats_env(self, monkeypatch):
        from repro.tdn import csr as csr_mod

        monkeypatch.setenv(csr_mod.SCALAR_LIMIT_ENV, "999")
        assert csr_mod.resolve_scalar_pair_limit(override=123) == 123

    def test_env_override_beats_default(self, monkeypatch):
        """The env var beats the default; a bad value fails the engine."""
        from repro.tdn import csr as csr_mod

        monkeypatch.setenv(csr_mod.SCALAR_LIMIT_ENV, "4321")
        assert csr_mod.resolve_scalar_pair_limit() == 4321
        graph = random_graph(random.Random(2), num_nodes=8, num_events=20)
        for bad in ("not-a-number", "-5", "2.5", ""):
            monkeypatch.setenv(csr_mod.SCALAR_LIMIT_ENV, bad)
            with pytest.raises(ConfigError) as excinfo:
                DeltaCSR(graph)
            assert csr_mod.SCALAR_LIMIT_ENV in str(excinfo.value)
            assert repr(bad) in str(excinfo.value)

    def test_default_cutover_is_fixed(self, monkeypatch):
        """Unset env: the python backend's cutover is the module default."""
        from repro.tdn import csr as csr_mod

        monkeypatch.delenv(csr_mod.SCALAR_LIMIT_ENV, raising=False)
        graph = random_graph(random.Random(4), num_nodes=8, num_events=20)
        engine = DeltaCSR(graph, backend="python")
        assert engine.scalar_pair_limit == csr_mod.DEFAULT_SCALAR_PAIR_LIMIT

    def test_native_backend_pins_cutover_to_zero(self, monkeypatch):
        """The native backend always vectorizes; a degraded engine runs
        the python kernels and keeps their default."""
        import warnings

        from repro.kernels import backend as backend_mod
        from repro.tdn import csr as csr_mod

        monkeypatch.delenv(csr_mod.SCALAR_LIMIT_ENV, raising=False)
        assert csr_mod.resolve_scalar_pair_limit(None, "native") == 0
        monkeypatch.setattr(backend_mod, "native_available", lambda: False)
        graph = random_graph(random.Random(6), num_nodes=8, num_events=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            degraded = DeltaCSR(graph, backend="native")
        assert degraded.backend == "python"
        assert degraded.scalar_pair_limit == csr_mod.DEFAULT_SCALAR_PAIR_LIMIT

    def test_engine_override_pins_both_paths(self, rng=None):
        """A per-engine override steers the cutover."""
        import random as random_mod

        from repro.tdn.csr import DeltaCSR

        rng = random_mod.Random(3)
        graph = random_graph(rng, num_nodes=15, num_events=80)
        forced_vector = DeltaCSR(graph, scalar_pair_limit=0)
        forced_scalar = DeltaCSR(graph, scalar_pair_limit=10**9)
        ids = list(range(graph.num_interned))
        horizon = graph.time + 3
        assert forced_vector.reachable_ids(ids[:4], horizon) == (
            forced_scalar.reachable_ids(ids[:4], horizon)
        )
        assert forced_vector.spread_counts([(i,) for i in ids], horizon) == (
            forced_scalar.spread_counts([(i,) for i in ids], horizon)
        )

    def test_cutover_weighs_alive_pairs(self, monkeypatch):
        """The cutover weighs the graph's alive pairs, not the base plus
        log rows: pairs that die drop out of it at once, so a graph that
        falls back under the limit walks scalar before any compaction."""
        from repro.tdn import csr as csr_mod

        monkeypatch.setenv(csr_mod.SCALAR_LIMIT_ENV, "3")
        graph = TDNGraph()
        engine = graph.csr()
        assert engine.scalar_reach(None) is not None  # empty: scalar
        graph.add_batch(
            [
                Interaction("a", "b", 0, 1),
                Interaction("c", "d", 0, 1),
                Interaction("e", "f", 0, 5),
                Interaction("g", "h", 0, 5),
            ]
        )
        assert engine.scalar_reach(None) is None  # 4 alive pairs > 3
        graph.advance_to(1)
        assert graph.csr() is engine and engine.compactions == 1
        assert (graph.num_pairs, len(engine.arrival_log)) == (2, 4)
        walk, eff = engine.scalar_reach(None)
        e, f = graph.node_id("e"), graph.node_id("f")
        assert walk([e], eff) == {e, f} == engine.reachable_ids([e])

    def test_engine_resolves_cutover_once(self, monkeypatch):
        """The env is read when an engine is built, never again after."""
        from repro.kernels.traversal import TraversalKernel
        from repro.tdn import csr as csr_mod

        scalar_sweeps = []
        reach_scalar = TraversalKernel.reach_scalar

        def counted(kernel, seed_ids, eff):
            scalar_sweeps.append(1)
            return reach_scalar(kernel, seed_ids, eff)

        monkeypatch.setattr(TraversalKernel, "reach_scalar", counted)
        monkeypatch.setenv(csr_mod.SCALAR_LIMIT_ENV, "0")
        graph = random_graph(random.Random(5), num_nodes=15, num_events=80)
        engine = graph.csr()
        ids = list(range(graph.num_interned))
        engine.reachable_ids(ids[:3], None)

        monkeypatch.setenv(csr_mod.SCALAR_LIMIT_ENV, str(10**9))
        graph.add_interaction(Interaction("n1", "fresh", graph.time, 9))
        engine._compact()  # noqa: SLF001 - a rebuild keeps the engine's cutover
        assert graph.csr() is engine
        assert engine.scalar_pair_limit == 0
        engine.reachable_ids(ids[:3], None)
        engine.ancestor_ids(ids[:3], None)
        engine.spread_counts([[i] for i in ids[:5]], None)
        assert scalar_sweeps == []

        other = random_graph(random.Random(5), num_nodes=15, num_events=80)
        assert other.csr().scalar_pair_limit == 10**9
        other.csr().reachable_ids(ids[:3], None)
        assert scalar_sweeps == [1]

    def test_tracker_steps_read_no_environment(self, monkeypatch):
        """After one warm-up step, stepping HistApprox reads no env var."""
        import collections.abc
        import os

        from repro.core.tracker import InfluenceTracker

        class EnvironSpy(collections.abc.MutableMapping):
            def __init__(self, environ):
                self.environ = environ
                self.reads = []

            def __getitem__(self, key):
                self.reads.append(key)
                return self.environ[key]

            def __contains__(self, key):
                self.reads.append(key)
                return key in self.environ

            def __iter__(self):
                self.reads.append("<iter>")
                return iter(self.environ)

            def __len__(self):
                return len(self.environ)

            def __setitem__(self, key, value):
                self.environ[key] = value

            def __delitem__(self, key):
                del self.environ[key]

        rng = random.Random(11)
        batches = [
            [
                (f"n{rng.randrange(20)}", f"n{rng.randrange(20)}", rng.randint(1, 30))
                for _ in range(15)
            ]
            for _ in range(51)
        ]
        batches = [[edge for edge in batch if edge[0] != edge[1]] for batch in batches]
        tracker = InfluenceTracker("hist-approx", k=3, epsilon=0.2)
        tracker.step(0, batches[0])
        compactions = tracker.graph.csr().compactions
        spy = EnvironSpy(os.environ)
        monkeypatch.setattr(os, "environ", spy)
        for t, batch in enumerate(batches[1:], start=1):
            tracker.step(t, batch)
        monkeypatch.undo()
        assert spy.reads == []
        # The window spans engine compactions, which rebuild kernels.
        assert tracker.graph.csr().compactions > compactions
