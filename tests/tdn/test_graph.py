"""Unit tests for TDNGraph: expiry, adjacency, horizon filtering."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def make_graph(events, upto):
    graph = TDNGraph()
    by_time = {}
    for e in events:
        by_time.setdefault(e.time, []).append(e)
    for t in range(upto + 1):
        graph.advance_to(t)
        for e in by_time.get(t, []):
            graph.add_interaction(e)
    return graph


class TestClock:
    def test_starts_at_zero(self):
        assert TDNGraph().time == 0

    def test_advance_and_tick(self):
        graph = TDNGraph()
        graph.advance_to(5)
        assert graph.time == 5
        graph.tick()
        assert graph.time == 6

    def test_rewind_rejected(self):
        graph = TDNGraph()
        graph.advance_to(3)
        with pytest.raises(ValueError, match="rewind"):
            graph.advance_to(2)

    def test_advance_returns_removed_count(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("a", "c", 0, 2))
        assert graph.advance_to(1) == 1
        assert graph.advance_to(2) == 1


class TestAddAndExpire:
    def test_edge_alive_then_expires(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        assert graph.num_edges == 1
        graph.advance_to(1)
        assert graph.num_edges == 1
        graph.advance_to(2)
        assert graph.num_edges == 0

    def test_node_removed_when_all_edges_expire(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        assert graph.has_node("a") and graph.has_node("b")
        graph.advance_to(1)
        assert not graph.has_node("a") and not graph.has_node("b")
        assert graph.num_nodes == 0

    def test_node_stays_while_any_edge_alive(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("c", "a", 0, 3))
        graph.advance_to(1)
        assert graph.has_node("a")  # still a target of c->a
        assert not graph.has_node("b")

    def test_multi_edges_counted(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("a", "b", 0, 5))
        assert graph.num_edges == 2
        assert graph.num_pairs == 1
        assert graph.interaction_count("a", "b") == 2
        graph.advance_to(1)
        assert graph.interaction_count("a", "b") == 1

    def test_stale_interaction_rejected(self):
        graph = TDNGraph()
        graph.advance_to(5)
        with pytest.raises(ValueError, match="not alive"):
            graph.add_interaction(Interaction("a", "b", 2, 2))

    def test_infinite_lifetime_never_expires(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0))
        graph.advance_to(10_000)
        assert graph.num_edges == 1

    def test_version_bumps_on_changes_only(self):
        graph = TDNGraph()
        v0 = graph.version
        graph.add_interaction(Interaction("a", "b", 0, 3))
        assert graph.version == v0 + 1
        v1 = graph.version
        graph.advance_to(1)  # nothing expires
        assert graph.version == v1
        graph.advance_to(3)  # the edge expires
        assert graph.version == v1 + 1


class TestPaperFig2Example:
    """Replays the exact 9-edge example of the paper's Fig. 2."""

    EDGES_T = [
        ("u1", "u2", 1),
        ("u1", "u3", 1),
        ("u1", "u4", 2),
        ("u5", "u3", 3),
        ("u6", "u4", 1),
        ("u6", "u7", 1),
    ]
    EDGES_T1 = [
        ("u5", "u2", 1),
        ("u7", "u4", 2),
        ("u7", "u6", 3),
    ]

    def build(self, upto):
        events = [Interaction(u, v, 0, lt) for u, v, lt in self.EDGES_T]
        events += [Interaction(u, v, 1, lt) for u, v, lt in self.EDGES_T1]
        return make_graph(events, upto)

    def test_time_t_edges(self):
        graph = self.build(0)
        assert graph.num_edges == 6
        assert set(graph.alive_pairs()) == {
            ("u1", "u2"), ("u1", "u3"), ("u1", "u4"),
            ("u5", "u3"), ("u6", "u4"), ("u6", "u7"),
        }

    def test_time_t_plus_1_matches_figure(self):
        # Per Fig. 2: e1, e2, e5, e6 expire; e3, e4 survive with decremented
        # lifetimes; e7, e8, e9 arrive.
        graph = self.build(1)
        assert set(graph.alive_pairs()) == {
            ("u1", "u4"), ("u5", "u3"),
            ("u5", "u2"), ("u7", "u4"), ("u7", "u6"),
        }
        assert graph.remaining_lifetime("u1", "u4") == 1
        assert graph.remaining_lifetime("u5", "u3") == 2
        assert graph.remaining_lifetime("u5", "u2") == 1
        assert graph.remaining_lifetime("u7", "u4") == 2
        assert graph.remaining_lifetime("u7", "u6") == 3


class TestHorizonFiltering:
    def test_out_neighbors_filtered_by_expiry(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))  # expiry 2
        graph.add_interaction(Interaction("a", "c", 0, 5))  # expiry 5
        assert set(graph.out_neighbors("a")) == {"b", "c"}
        assert set(graph.out_neighbors("a", min_expiry=3)) == {"c"}
        assert set(graph.out_neighbors("a", min_expiry=6)) == set()

    def test_in_neighbors_filtered_by_expiry(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "c", 0, 2))
        graph.add_interaction(Interaction("b", "c", 0, 5))
        assert set(graph.in_neighbors("c", min_expiry=3)) == {"b"}

    def test_max_expiry_uses_longest_parallel_edge(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("a", "b", 0, 4))
        assert graph.max_expiry("a", "b") == 4
        assert set(graph.out_neighbors("a", min_expiry=3)) == {"b"}
        graph.advance_to(1)  # short edge gone, long one remains
        assert graph.max_expiry("a", "b") == 4

    def test_max_expiry_recomputed_after_longest_expires(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.advance_to(1)
        graph.add_interaction(Interaction("a", "b", 1, 4))  # expiry 5
        graph.advance_to(2)  # first edge (expiry 2) goes
        assert graph.max_expiry("a", "b") == 5

    def test_infinite_expiry_always_passes_filters(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0))
        assert set(graph.out_neighbors("a", min_expiry=10**9)) == {"b"}
        assert graph.max_expiry("a", "b") == math.inf


class TestExpiryRangeScan:
    def test_edges_with_expiry_in_range(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))  # expiry 1
        graph.add_interaction(Interaction("a", "c", 0, 3))  # expiry 3
        graph.add_interaction(Interaction("b", "c", 0, 5))  # expiry 5
        rows = list(graph.edges_with_expiry_in(2, 5))
        assert rows == [("a", "c", 3)]

    def test_range_scan_excludes_expired_buckets(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 1))
        graph.add_interaction(Interaction("a", "c", 0, 4))
        graph.advance_to(2)
        assert list(graph.edges_with_expiry_in(0, 100)) == [("a", "c", 4)]

    def test_range_scan_with_infinite_upper_bound(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("a", "c", 0))  # infinite
        rows = list(graph.edges_with_expiry_in(1, math.inf))
        # Infinite-expiry edges are never yielded (hi is exclusive).
        assert rows == [("a", "b", 2)]

    def test_range_scan_includes_parallel_edges(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 3))
        graph.add_interaction(Interaction("a", "b", 0, 3))
        assert list(graph.edges_with_expiry_in(1, 10)) == [
            ("a", "b", 3),
            ("a", "b", 3),
        ]


class TestInventories:
    def test_node_set_and_alive_interactions(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("c", "a", 0, 1))
        assert graph.node_set() == {"a", "b", "c"}
        rows = graph.alive_interactions()
        assert len(rows) == 2
        graph.advance_to(1)
        assert graph.node_set() == {"a", "b"}

    def test_alive_pairs_with_counts(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("b", "c", 0, 2))
        assert sorted(graph.alive_pairs_with_counts()) == [
            ("a", "b", 2),
            ("b", "c", 1),
        ]

    def test_degrees(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("a", "c", 0, 2))
        graph.add_interaction(Interaction("c", "b", 0, 2))
        assert graph.out_degree("a") == 2
        assert graph.in_degree("b") == 2
        assert graph.out_degree("b") == 0


class TestSparseTimestamps:
    """Clock advancement must cost O(expired edges), never O(Δt)."""

    def test_million_scale_gap_completes_fast(self):
        import time as _time

        graph = TDNGraph()
        # Unix-second style timestamps: a handful of buckets, huge gaps.
        graph.add_interaction(Interaction("a", "b", 0, 5))
        graph.add_interaction(Interaction("b", "c", 0, 10_000_000))
        graph.add_interaction(Interaction("c", "d", 0, None))
        started = _time.perf_counter()
        removed = graph.advance_to(9_999_999)
        elapsed = _time.perf_counter() - started
        assert removed == 1  # only the lifetime-5 edge expired
        assert graph.num_edges == 2
        # O(Δt) iteration over a 10^7 gap takes seconds; the bucket drain
        # is microseconds.  A generous bound keeps slow CI honest.
        assert elapsed < 0.05, f"advance_to over 10^7 gap took {elapsed:.3f}s"
        removed = graph.advance_to(10_000_000)
        assert removed == 1
        assert graph.num_edges == 1  # only the infinite edge remains

    def test_sparse_advance_expires_exactly_the_due_buckets(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 3))
        graph.add_interaction(Interaction("a", "c", 0, 1_000_000))
        graph.add_interaction(Interaction("b", "c", 0, 2_000_000))
        assert graph.advance_to(999_999) == 1
        assert graph.advance_to(1_500_000) == 1
        assert set(graph.alive_pairs()) == {("b", "c")}
        assert graph.advance_to(2_000_000) == 1
        assert graph.num_edges == 0

    def test_interleaved_adds_keep_key_order(self):
        # A later add may create a bucket *below* existing keys; the sorted
        # key structure must stay ordered so drains and range scans agree.
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 50))  # expiry 50
        graph.add_interaction(Interaction("a", "c", 0, 10))  # expiry 10
        graph.advance_to(5)
        graph.add_interaction(Interaction("b", "c", 5, 2))  # expiry 7
        assert [e for _, _, e in graph.edges_with_expiry_in(0, 100)] == [7, 10, 50]
        assert graph.advance_to(9) == 1  # only expiry 7 is due
        assert graph.advance_to(10) == 1  # then expiry 10
        assert set(graph.alive_pairs()) == {("a", "b")}


class TestNodeInterning:
    def test_ids_dense_and_stable(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        graph.add_interaction(Interaction("b", "c", 0, 5))
        assert graph.num_interned == 3
        assert [graph.node_id(n) for n in ("a", "b", "c")] == [0, 1, 2]
        assert graph.node_of_id(2) == "c"
        graph.advance_to(2)  # (a, b) expires; ids must not shift
        assert graph.node_id("a") == 0
        assert graph.num_interned == 3
        graph.add_interaction(Interaction("a", "d", 2, 3))
        assert graph.node_id("d") == 3

    def test_intern_ids_counts_unknown_nodes(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 2))
        ids, unknown = graph.intern_ids(["a", "ghost", "b", "phantom"])
        assert sorted(ids) == [0, 1]
        assert unknown == 2

    def test_unknown_node_id_is_none(self):
        assert TDNGraph().node_id("nope") is None


class TestO1Inventories:
    """num_nodes / num_pairs are maintained counters, not full scans."""

    def test_counters_track_full_recomputation(self):
        import random

        rng = random.Random(29)
        graph = TDNGraph()
        t = 0
        for _ in range(400):
            if rng.random() < 0.2:
                t += rng.randint(1, 4)
                graph.advance_to(t)
            u, v = rng.sample(range(18), 2)
            lifetime = None if rng.random() < 0.1 else rng.randint(1, 15)
            graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
            assert graph.num_nodes == len(graph.node_set())
            assert graph.num_pairs == sum(len(nbrs) for nbrs in graph._out.values())
        # After a deep advance only the infinite-lifetime edges remain, and
        # the counters still agree with full recomputation.
        graph.advance_to(t + 1_000)
        assert graph.num_nodes == len(graph.node_set())
        assert graph.num_pairs == sum(len(nbrs) for nbrs in graph._out.values())
        assert graph.num_edges == len(graph.alive_interactions())

    def test_parallel_edges_do_not_double_count(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 5))
        graph.add_interaction(Interaction("a", "b", 0, 9))
        assert graph.num_pairs == 1
        assert graph.num_nodes == 2
        graph.advance_to(5)  # first parallel edge expires; pair survives
        assert graph.num_pairs == 1
        assert graph.num_nodes == 2
        graph.advance_to(9)  # pair dies, both nodes decay
        assert graph.num_pairs == 0
        assert graph.num_nodes == 0

    def test_shared_endpoint_decay(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 3))
        graph.add_interaction(Interaction("b", "c", 0, 7))
        assert (graph.num_nodes, graph.num_pairs) == (3, 2)
        graph.advance_to(3)  # a->b dies; b survives via b->c
        assert (graph.num_nodes, graph.num_pairs) == (2, 1)
        graph.advance_to(7)
        assert (graph.num_nodes, graph.num_pairs) == (0, 0)


class TestExpiryKeyStructures:
    """The expiry bucket dict, the only index behind expiries and range
    scans."""

    def test_heap_drains_in_order_across_sparse_gaps(self):
        graph = TDNGraph()
        # Insert with wildly out-of-order expiries.
        for lifetime in (900, 3, 50_000, 17, 4):
            graph.add_interaction(Interaction("a", f"b{lifetime}", 0, lifetime))
        assert graph.advance_to(20) == 3  # lifetimes 3, 4 and 17
        assert graph.advance_to(100_000) == 2  # lifetimes 900 and 50_000
        assert graph.num_edges == 0
        assert graph._expiry_buckets == {}

    def test_overlay_merge_prunes_drained_keys(self):
        graph = TDNGraph()
        for lifetime in (2, 5, 9):
            graph.add_interaction(Interaction("a", f"b{lifetime}", 0, lifetime))
        assert [e for _, _, e in graph.edges_with_expiry_in(0, 100)] == [2, 5, 9]
        graph.advance_to(5)
        # The drain popped the due keys; the new key joins the dict and
        # the next scan never re-yields the drained ones.
        graph.add_interaction(Interaction("a", "c", 5, 2))
        rows = [e for _, _, e in graph.edges_with_expiry_in(0, 100)]
        assert rows == [7, 9]
        assert sorted(graph._expiry_buckets) == [7, 9]

    def test_range_scan_after_pure_advance(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 4))
        graph.add_interaction(Interaction("b", "c", 0, 8))
        graph.advance_to(4)
        # No insert since the drain: advance_to popped the due bucket and
        # the scan sees only the surviving key.
        assert [e for _, _, e in graph.edges_with_expiry_in(0, 100)] == [8]

    def test_duplicate_expiry_keys_are_single_heap_entries(self):
        graph = TDNGraph()
        for target in "bcd":
            graph.add_interaction(Interaction("a", target, 0, 6))
        assert list(graph._expiry_buckets) == [6]  # one bucket, one key
        assert graph.advance_to(6) == 3

    def test_mass_out_of_order_inserts_match_reference(self, rng):
        """Fuzz: range scans over the bucket dict equal a brute-force
        filter of it."""
        graph = TDNGraph()
        t = 0
        for step in range(300):
            if rng.random() < 0.3:
                t += rng.randint(1, 15)
                graph.advance_to(t)
            u = rng.randrange(12)
            v = (u + 1 + rng.randrange(10)) % 12
            graph.add_interaction(
                Interaction(f"n{u}", f"n{v}", t, rng.randint(1, 120))
            )
            if step % 37 == 0:
                lo = t + rng.randint(0, 30)
                hi = lo + rng.randint(1, 60)
                expected = sorted(
                    (step_key, u2, v2)
                    for step_key, bucket in graph._expiry_buckets.items()
                    if lo <= step_key < hi and step_key > t
                    for u2, v2 in bucket
                )
                got = sorted(
                    (e, u2, v2) for u2, v2, e in graph.edges_with_expiry_in(lo, hi)
                )
                assert got == expected
        # Full drain leaves the index empty of finite keys.
        graph.advance_to(t + 1_000)
        assert graph._expiry_buckets == {}


#: One ingest step for the range-scan property: the clock gap before it
#: (sparse: mostly small, sometimes huge) and its ``(u, v, lifetime)`` rows.
SCAN_STEPS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 3), st.integers(1_000, 10**9)),
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.one_of(st.none(), st.integers(1, 8), st.integers(1, 10**10)),
            ),
            max_size=6,
        ),
    ),
    min_size=1,
    max_size=12,
)

#: Range bounds relative to the clock: near the dense short-lived keys
#: (so the probe path runs, at fractional ends), or far past them.
NEAR, FAR = st.floats(-2.0, 12.0), st.floats(-2.0, 2e10)


@settings(max_examples=150, deadline=None)
@given(
    steps=SCAN_STEPS,
    lo_offset=st.one_of(NEAR, FAR),
    span=st.one_of(st.just(math.inf), NEAR, FAR),
)
# Keys 3, 4 and 5 probed over [3.5, 5.5): both ends fractional.
@example(steps=[(0, [(0, 1, 3), (1, 2, 4), (2, 3, 5)])], lo_offset=3.5, span=2.0)
def test_edges_with_expiry_in_matches_brute_force(steps, lo_offset, span):
    """Range scans over the bucket dict equal a filter of every edge ever
    added, at float bounds, an infinite ``hi`` and across sparse jumps."""
    graph = TDNGraph()
    added = []
    t = 0
    for gap, rows in steps:
        t += gap
        graph.advance_to(t)
        batch = [Interaction(u, v, t, lifetime) for u, v, lifetime in rows if u != v]
        graph.add_batch(batch)
        added.extend(batch)
        lo = t + lo_offset
        hi = lo + span
        expected = sorted(
            (e.expiry, e.source, e.target)
            for e in added
            if e.expiry > t and e.expiry != math.inf and lo <= e.expiry < hi
        )
        got = [(expiry, u, v) for u, v, expiry in graph.edges_with_expiry_in(lo, hi)]
        assert [row[0] for row in got] == sorted(row[0] for row in got)
        assert sorted(got) == expected

