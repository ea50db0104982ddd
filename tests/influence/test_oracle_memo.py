"""Delta-aware memo semantics: dirty-cone eviction, FIFO order, equivalence.

The oracle's memo table survives graph version bumps: only entries whose
key-set intersects the ancestor closure of the journaled dirty sources are
evicted.  These tests pin the contract from three sides:

* *retention*: entries whose reachable cone no delta touched stay hot
  across arrivals and expiries (no re-counted oracle call), on both
  backends and for the weighted oracle;
* *soundness*: any entry retained across a batch equals a from-scratch
  evaluation (a hypothesis property over random add/advance streams);
* *equivalence*: the delta memo produces the solutions and spread values
  of a from-scratch reference — an oracle whose memo is invalidated
  before every batch — on replayed tracker streams, never spending more
  calls at default capacity, and FIFO capacity eviction order is
  preserved by dirty-cone deletes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sieve_adn as sieve_adn_module
from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.influence.changed import changed_nodes
from repro.influence.oracle import InfluenceOracle, MemoTable
from repro.parallel.executor import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.stream import MemoryStream
from repro.utils.counters import CallCounter


def two_island_graph():
    """Two disconnected chains: a -> b -> c and x -> y."""
    graph = TDNGraph()
    graph.add_interaction(Interaction("a", "b", 0, 50))
    graph.add_interaction(Interaction("b", "c", 0, 50))
    graph.add_interaction(Interaction("x", "y", 0, 50))
    return graph


class TestDeltaRetention:
    @pytest.mark.parametrize("backend", ["csr", "dict"])
    def test_untouched_cone_survives_arrival(self, backend):
        graph = two_island_graph()
        oracle = InfluenceOracle(graph, backend=backend)
        assert oracle.spread(["a"]) == 3
        assert oracle.spread(["x"]) == 2
        assert oracle.calls == 2
        # Arrival inside the x-island: the a-chain's cone is untouched.
        graph.add_interaction(Interaction("x", "z", 0, 50))
        assert oracle.spread(["a"]) == 3  # retained: no new call
        assert oracle.calls == 2
        assert oracle.spread(["x"]) == 3  # evicted: recomputed
        assert oracle.calls == 3

    @pytest.mark.parametrize("backend", ["csr", "dict"])
    def test_ancestors_of_arrival_source_are_evicted(self, backend):
        graph = two_island_graph()
        oracle = InfluenceOracle(graph, backend=backend)
        assert oracle.spread(["a"]) == 3
        # New edge out of c: a reaches c, so a's memo entry must go.
        graph.add_interaction(Interaction("c", "d", 0, 50))
        assert oracle.spread(["a"]) == 4
        assert oracle.calls == 2

    @pytest.mark.parametrize("backend", ["csr", "dict"])
    def test_untouched_cone_survives_expiry(self, backend):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("x", "y", 0, 50))
        oracle = InfluenceOracle(graph, backend=backend)
        assert oracle.spread(["a"]) == 2
        assert oracle.spread(["x"]) == 2
        graph.advance_to(5)  # a -> b expires; the x-island is untouched
        assert oracle.spread(["x"]) == 2
        assert oracle.calls == 2  # retained across the expiry
        assert oracle.spread(["a"]) == 1
        assert oracle.calls == 3

    def test_upstream_of_dead_pair_is_evicted(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("r", "s", 0, 50))
        graph.add_interaction(Interaction("s", "t", 0, 2))
        oracle = InfluenceOracle(graph)
        assert oracle.spread(["r"]) == 3
        graph.advance_to(5)  # s -> t dies; r sits upstream of s
        assert oracle.spread(["r"]) == 2
        assert oracle.calls == 2

    def test_non_final_parallel_edge_expiry_retains_everything(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("a", "b", 0, 50))
        oracle = InfluenceOracle(graph)
        assert oracle.spread(["a"]) == 2
        graph.advance_to(5)  # one parallel edge expires, the pair lives on
        assert oracle.spread(["a"]) == 2
        assert oracle.calls == 1  # nothing was journaled, nothing evicted

    def test_dict_backend_never_builds_csr_engine(self):
        """Dict oracles close dirty cones via the dict ancestor walk: the
        reference configuration must keep its pure-dict profile and never
        pay a CSR base build just to evict memo entries."""
        graph = two_island_graph()
        oracle = InfluenceOracle(graph, backend="dict")
        sieve = SieveADN(2, 0.2, graph, oracle)
        batch = [Interaction("x", "z", 0, 50)]
        graph.add_batch(batch)
        sieve.on_batch(0, batch)
        assert oracle.spread(["a"]) == 3
        assert graph._delta is None  # noqa: SLF001 - the pinned invariant

    def test_weighted_oracle_retains_untouched_cone(self):
        graph = two_island_graph()
        oracle = InfluenceOracle(graph, semantics="weighted_sum", weights={"c": 10.0})
        assert oracle.spread(["a"]) == 12.0
        assert oracle.spread(["x"]) == 2.0
        graph.add_interaction(Interaction("x", "z", 0, 50))
        assert oracle.spread(["a"]) == 12.0
        assert oracle.calls == 2  # retained
        assert oracle.spread(["x"]) == 3.0
        assert oracle.calls == 3

    def test_spread_many_sees_retained_entries(self):
        graph = two_island_graph()
        oracle = InfluenceOracle(graph)
        oracle.spread_many([["a"], ["x"]])
        graph.add_interaction(Interaction("x", "z", 0, 50))
        values = oracle.spread_many([["a"], ["x"]])
        assert values == [3, 3]
        assert oracle.calls == 3  # only the x entry re-evaluated


class TestClockBoundMemo:
    """``time_decay`` terms read in-edges and the clock: no dirty cone
    covers them, so its memo holds one graph version and time."""

    def fresh(self, graph, nodes):
        oracle = InfluenceOracle(graph, semantics="time_decay", max_cache_entries=0)
        return oracle.spread(nodes)

    def test_arrival_into_a_seed_refreshes_its_value(self):
        graph = TDNGraph()
        oracle = InfluenceOracle(graph, semantics="time_decay")
        assert oracle.spread(["a"]) == 1.0  # no in-edge yet
        graph.add_interaction(Interaction("b", "a", 0, 1))  # dirty source: b
        assert oracle.spread(["a"]) == self.fresh(graph, ["a"]) == 0.0
        assert oracle.calls == 2

    def test_clock_tick_refreshes_values(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("b", "a", 0, 5))
        oracle = InfluenceOracle(graph, semantics="time_decay")
        before = oracle.spread(["b"])
        version = graph.version
        graph.advance_to(1)  # expires nothing, bumps no version
        assert graph.version == version
        after = oracle.spread(["b"])
        assert after == self.fresh(graph, ["b"]) < before
        assert oracle.calls == 2

    def test_count_memo_survives_a_clock_tick(self):
        graph = two_island_graph()
        oracle = InfluenceOracle(graph)
        oracle.spread(["a"])
        graph.advance_to(1)
        oracle.spread(["a"])
        assert oracle.calls == 1


class TestDirtyJournal:
    def test_cursor_monotone_and_suffix_read(self):
        graph = TDNGraph()
        start = graph.dirty_cursor
        graph.add_interaction(Interaction("a", "b", 0, 5))
        graph.add_interaction(Interaction("c", "d", 0, 5))
        assert graph.dirty_cursor == start + 2
        ids = graph.dirty_source_ids_since(start)
        assert ids == {graph.node_id("a"), graph.node_id("c")}
        assert graph.dirty_source_ids_since(graph.dirty_cursor) == set()

    def test_pair_death_journals_source(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        cursor = graph.dirty_cursor
        graph.advance_to(5)
        assert graph.dirty_source_ids_since(cursor) == {graph.node_id("a")}

    def test_trimmed_journal_reports_none(self, monkeypatch):
        monkeypatch.setattr(TDNGraph, "DIRTY_LOG_MAX", 4)
        graph = TDNGraph()
        cursor = graph.dirty_cursor
        for i in range(6):
            graph.add_interaction(Interaction(f"s{i}", f"t{i}", 0, 9))
        assert graph.dirty_source_ids_since(cursor) is None
        # A caught-up cursor keeps working after the trim.
        assert graph.dirty_source_ids_since(graph.dirty_cursor) == set()

    def test_oracle_survives_journal_trim_with_wholesale_clear(self, monkeypatch):
        monkeypatch.setattr(TDNGraph, "DIRTY_LOG_MAX", 4)
        graph = two_island_graph()
        oracle = InfluenceOracle(graph)
        assert oracle.spread(["a"]) == 3
        for i in range(6):  # overflow the journal between syncs
            graph.add_interaction(Interaction(f"f{i}", f"g{i}", 0, 9))
        assert oracle.spread(["a"]) == 3
        assert oracle.calls == 2  # cleared wholesale, recomputed correctly

    def test_touched_cone_ids_closes_seeds_under_ancestors(self):
        """The memo's dirty cone is the engine's ``ancestor_ids`` at the
        widest live horizon; the executor's ``touched_cone_ids`` agrees."""
        graph = two_island_graph()
        seeds = [graph.node_id("c")]
        want = {graph.node_id("a"), graph.node_id("b"), graph.node_id("c")}
        assert graph.csr().ancestor_ids(seeds, None) == want
        executor = ShardedOracleExecutor(1)
        try:
            assert executor.touched_cone_ids(graph, seeds) == want
        finally:
            executor.close()


class TestFifoOrderAcrossModes:
    """Capacity eviction stays FIFO; dirty deletes never reorder survivors."""

    def test_delta_mode_preserves_fifo_capacity_order(self):
        graph = TDNGraph()
        for leaf in ("b", "c", "d"):
            graph.add_interaction(Interaction("a", leaf, 0, 50))
        graph.add_interaction(Interaction("x", "y", 0, 50))
        oracle = InfluenceOracle(graph, max_cache_entries=3)
        oracle.spread(["b"])  # oldest
        oracle.spread(["c"])
        oracle.spread(["x"])
        # A delta in the x-island evicts only the x entry; b and c survive
        # in their original FIFO positions.
        graph.add_interaction(Interaction("x", "z", 0, 50))
        oracle.spread(["d"])  # table full again: [b, c, d]
        calls = oracle.calls
        oracle.spread(["c"])  # still cached
        assert oracle.calls == calls
        oracle.spread(["x"])  # evicts oldest survivor: b
        oracle.spread(["b"])  # must be a real re-evaluation
        assert oracle.calls == calls + 2

    def test_fifo_order_identical_within_a_version(self):
        graph = TDNGraph()
        for leaf in ("b", "c", "d", "e"):
            graph.add_interaction(Interaction("a", leaf, 0, 50))
        oracle = InfluenceOracle(graph, max_cache_entries=2)
        for seed in ("b", "c", "d"):  # d's insert evicts b
            oracle.spread([seed])
        calls = oracle.calls
        oracle.spread(["d"])
        oracle.spread(["c"])
        assert oracle.calls == calls  # two most recent entries cached
        oracle.spread(["b"])
        assert oracle.calls == calls + 1  # the FIFO-evicted oldest re-counts


class TestMemoTable:
    def test_evict_nodes_returns_eviction_count(self):
        graph = two_island_graph()
        table = MemoTable(graph, 10)
        table.put((None, frozenset(["a"])), 3)
        table.put((None, frozenset(["a", "x"])), 4)
        table.put((None, frozenset(["x"])), 2)
        assert table.evict_nodes({"a"}) == 2
        assert list(table.data) == [(None, frozenset(["x"]))]
        assert table.evict_nodes({"missing"}) == 0

    def test_zero_capacity_stores_nothing(self):
        graph = two_island_graph()
        table = MemoTable(graph, 0)
        table.put((None, frozenset(["a"])), 3)
        assert len(table) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            MemoTable(TDNGraph(), -1)


def seeded_events(seed, steps=16, num_nodes=8):
    rng = random.Random(seed)
    events = []
    for t in range(steps):
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(num_nodes), 2)
            lifetime = None if rng.random() < 0.2 else rng.randint(1, 6)
            events.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return events


def make_tracker(name, graph, oracle):
    if name == "sieve_adn":
        return SieveADN(2, 0.2, graph, oracle)
    if name == "basic_reduction":
        return BasicReduction(2, 0.2, 6, graph, oracle)
    if name == "hist_approx":
        return HistApprox(2, 0.2, graph, oracle)
    raise AssertionError(name)


def replay(tracker_name, events, from_scratch=False, backend="csr"):
    """Replay ``events``; ``from_scratch`` invalidates the memo per batch."""
    graph = TDNGraph()
    counter = CallCounter()
    oracle = InfluenceOracle(graph, counter, backend=backend)
    tracker = make_tracker(tracker_name, graph, oracle)
    solutions = []
    for t, batch in MemoryStream(events, fill_gaps=True):
        graph.advance_to(t)
        graph.add_batch(batch)
        if from_scratch:
            oracle.invalidate()
        tracker.on_batch(t, batch)
        solutions.append(tracker.query())
    return solutions, counter.total


class TestModeEquivalence:
    """Delta retention changes call counts only — never a value or solution."""

    @pytest.mark.parametrize(
        "tracker_name", ["sieve_adn", "basic_reduction", "hist_approx"]
    )
    @pytest.mark.parametrize("seed", [13, 41])
    def test_identical_solutions_across_memo_modes(self, tracker_name, seed):
        events = [
            e if e.lifetime is not None else Interaction(e.source, e.target, e.time, 6)
            for e in seeded_events(seed)
        ]
        delta_solutions, delta_calls = replay(tracker_name, events)
        scratch_solutions, scratch_calls = replay(
            tracker_name, events, from_scratch=True
        )
        assert delta_solutions == scratch_solutions
        # At default capacity the delta cache is a superset of the
        # from-scratch cache at every step, so it can only save calls.
        assert delta_calls <= scratch_calls
        assert scratch_calls > 0

    @pytest.mark.parametrize("seed", [13, 41])
    def test_backends_agree_under_delta_mode(self, seed):
        events = seeded_events(seed)
        csr_solutions, csr_calls = replay("sieve_adn", events, backend="csr")
        dict_solutions, dict_calls = replay("sieve_adn", events, backend="dict")
        assert csr_solutions == dict_solutions
        assert csr_calls == dict_calls

    def test_delta_mode_actually_saves_calls_on_disjoint_batches(self):
        """Vacuity guard: the equivalence above must compare distinct work."""
        events = []
        for t in range(10):
            events.append(Interaction(f"s{t}", f"t{t}", t, 50))
        delta_solutions, delta_calls = replay("sieve_adn", events)
        scratch_solutions, scratch_calls = replay(
            "sieve_adn", events, from_scratch=True
        )
        assert delta_solutions == scratch_solutions
        assert delta_calls < scratch_calls


class TestSharedSweep:
    def test_cone_candidates_match_changed_nodes(self):
        """SIEVEADN's candidates equal a csr ``changed_nodes`` sweep."""
        events = seeded_events(7)
        graph = TDNGraph()
        sieve = SieveADN(2, 0.2, graph)
        seen = []
        original = SieveADN.process_candidates

        def capture(self, candidates):
            candidates = list(candidates)
            seen.append(candidates)
            return original(self, candidates)

        SieveADN.process_candidates = capture
        try:
            for t, batch in MemoryStream(events, fill_gaps=True):
                graph.advance_to(t)
                graph.add_batch(batch)
                expected = (
                    changed_nodes(graph, batch, None, backend="csr")
                    if batch
                    else []
                )
                sieve.on_batch(t, batch)
                if batch:
                    assert seen[-1] == expected
        finally:
            SieveADN.process_candidates = original

    def test_csr_sieve_sweeps_changed_nodes_as_pairs_die(self, monkeypatch):
        """Pairs die in every batch, so the journal's dirty seeds are never
        just the batch's sources; each backend derives every ``V_t-bar``
        with one ``changed_nodes`` call per non-empty batch on its own
        engine, and the csr run matches the dict run in solutions, values
        and calls."""
        rng = random.Random(5)
        events = []
        for t in range(40):
            for _ in range(6):
                u, v = rng.sample(range(12), 2)
                events.append(Interaction(f"n{u}", f"n{v}", t, rng.randint(1, 3)))
        sweeps = []
        real_changed_nodes = sieve_adn_module.changed_nodes

        def counted(*args, **kwargs):
            sweeps.append(kwargs["backend"])
            return real_changed_nodes(*args, **kwargs)

        monkeypatch.setattr(sieve_adn_module, "changed_nodes", counted)
        runs = {}
        for backend in ("csr", "dict"):
            graph = TDNGraph()
            counter = CallCounter()
            oracle = InfluenceOracle(graph, counter, backend=backend)
            sieve = SieveADN(3, 0.2, graph, oracle)
            solutions = []
            for t, batch in MemoryStream(events, fill_gaps=True):
                pairs = graph.num_pairs
                graph.advance_to(t)
                if t:
                    assert graph.num_pairs < pairs  # some pair died
                graph.add_batch(batch)
                sieve.on_batch(t, batch)
                solutions.append(sieve.query())
            runs[backend] = (solutions, counter.total)
        assert runs["csr"] == runs["dict"]
        assert runs["csr"][1] > 0
        assert sweeps == ["csr"] * 40 + ["dict"] * 40


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),  # source
            st.integers(min_value=0, max_value=6),  # target
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),  # lifetime
            st.integers(min_value=0, max_value=2),  # clock advance first
        ),
        min_size=1,
        max_size=40,
    )
)
def test_retained_entries_equal_from_scratch_spread(events):
    """Soundness: anything the delta memo retains is exactly recomputable."""
    graph = TDNGraph()
    oracle = InfluenceOracle(graph)
    t = 0
    for u, v, lifetime, advance in events:
        if u == v:
            continue
        if advance:
            t += advance
            graph.advance_to(t)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
        nodes = sorted(graph.node_set(), key=repr)
        probes = [frozenset([n]) for n in nodes[:4]]
        if len(nodes) >= 2:
            probes.append(frozenset(nodes[:2]))
        for horizon in (None, t + 2):
            for probe in probes:
                oracle.spread(probe, horizon)
        # Every cached entry — newly computed or retained across any number
        # of version bumps — must equal a from-scratch reference spread.
        reference = InfluenceOracle(graph, backend="dict", max_cache_entries=0)
        for (horizon, key_nodes), value in list(oracle._memo.data.items()):
            assert value == reference.spread(key_nodes, horizon), (
                key_nodes,
                horizon,
            )


class TestSpreadManyBadInput:
    def test_unhashable_input_leaves_no_pending_reservations(self):
        """A bad set raises before any cache slot is reserved."""
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 9))
        oracle = InfluenceOracle(graph)
        with pytest.raises(TypeError):
            oracle.spread_many([("a",), ([],)])  # list is unhashable
        # The good set was never reserved: a fresh batch evaluates clean.
        assert oracle.spread_many([("a",)]) == [2]
        assert oracle.calls == 1
