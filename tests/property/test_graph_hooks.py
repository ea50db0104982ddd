"""Property suite for ``TDNGraph``'s per-edge mutation hooks.

``add_interaction`` and ``advance_to`` keep the O(1) node, pair and edge
counters, the dirty-source journal and the live delta engine's overlay
current edge by edge.  Random streams with parallel edges and infinite
lifetimes are replayed against a plain reference model, and after every
add and every ``advance_to``:

* ``num_nodes``, ``num_pairs`` and ``num_edges`` equal brute-force
  recounts from ``node_set()`` / ``alive_pairs()`` and the model;
* the journal lists, in order, the source id of every arrival and of
  every pair whose last edge expired, expiries draining by time step and
  then in arrival order;
* the live engine's kernels cover exactly the interned id space and
  weigh the scalar cutover by the graph's alive pairs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

#: One stream op: ``("add", u, v, lifetime)`` or ``("advance", gap)``.
OPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 6),
        st.integers(0, 6),
        st.one_of(st.none(), st.integers(1, 6)),
    ),
    st.tuples(st.just("advance"), st.integers(0, 4)),
)


class ReferenceModel:
    """Alive edges as a plain list, drained the way the graph drains them."""

    def __init__(self):
        self.time = 0
        self.edges = []  # [u, v, expiry] in arrival order
        self.ids = {}
        self.journal = []

    def intern(self, node):
        return self.ids.setdefault(node, len(self.ids))

    def multiplicity(self, u, v):
        return sum(1 for a, b, _ in self.edges if (a, b) == (u, v))

    def add(self, u, v, expiry):
        self.intern(u)
        self.intern(v)
        self.edges.append((u, v, expiry))
        self.journal.append(self.ids[u])

    def advance(self, t):
        due = sorted(
            (edge for edge in self.edges if edge[2] <= t),
            key=lambda edge: edge[2],  # stable: arrival order within a step
        )
        for edge in due:
            self.edges.remove(edge)
            u, v, _ = edge
            if self.multiplicity(u, v) == 0:
                self.journal.append(self.ids[u])
        self.time = t

    def node_set(self):
        return {u for u, _, _ in self.edges} | {v for _, v, _ in self.edges}

    def pairs(self):
        return {(u, v) for u, v, _ in self.edges}


def assert_matches(graph, model):
    nodes = graph.node_set()
    pairs = list(graph.alive_pairs())
    assert nodes == model.node_set()
    assert set(pairs) == model.pairs()
    assert graph.num_nodes == len(nodes)
    assert graph.num_pairs == len(pairs) == len(set(pairs))
    assert graph.num_edges == len(model.edges)
    counts = [count for *_, count in graph.alive_pairs_with_counts()]
    assert graph.num_edges == sum(counts)
    assert graph._dirty_log == model.journal  # noqa: SLF001 - test probe
    engine = graph._delta  # noqa: SLF001 - test probe
    if engine is not None:
        for kernel in (engine._fwd, engine._rev):  # noqa: SLF001 - test probe
            if kernel is not None:
                assert kernel.num_nodes == graph.num_interned
                assert kernel.entry_count == graph.num_pairs


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(OPS, max_size=60),
    live_engine=st.booleans(),
)
def test_counters_journal_and_listeners_match_the_reference(ops, live_engine):
    graph = TDNGraph()
    model = ReferenceModel()
    if live_engine:
        graph.csr()
    for step, op in enumerate(ops):
        if op[0] == "advance":
            t = graph.time + op[1]
            graph.advance_to(t)
            model.advance(t)
        else:
            _, u, v, lifetime = op
            if u == v:
                continue
            interaction = Interaction(f"n{u}", f"n{v}", graph.time, lifetime)
            graph.add_interaction(interaction)
            expiry = math.inf if lifetime is None else graph.time + lifetime
            model.add(f"n{u}", f"n{v}", expiry)
        if live_engine and step % 3 == 0:
            # Build (or rebuild, after a compaction) both kernels, so
            # later arrivals exercise their id-space growth.
            engine = graph.csr()
            engine.reachable_count([])
            engine.ancestor_ids([])
        assert_matches(graph, model)


def test_rejects_an_interaction_not_alive_now():
    graph = TDNGraph()
    graph.advance_to(5)
    with pytest.raises(ValueError, match="not alive at current time 5"):
        graph.add_interaction(Interaction("a", "b", 2, 3))  # expired at 5
    with pytest.raises(ValueError, match="not alive at current time 5"):
        graph.add_interaction(Interaction("a", "b", 6, 3))  # not yet arrived
    assert graph.num_interned == 0 and graph.version == 0
