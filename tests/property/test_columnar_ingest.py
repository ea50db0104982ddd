"""Differential suite for the columnar step path.

:meth:`InfluenceTracker.step` checks a step, builds its ``(source,
target, expiry)`` columns (:class:`~repro.tdn.batch.EdgeBatch`) and hands
the same object to :meth:`TDNGraph.add_batch` and to the algorithm.  Two
properties pin that path:

* **graph** — random steps (parallel edges, infinite lifetimes,
  ``Interaction`` rows stamped before their step, clock jumps) ingested
  through the columns leave the graph equal to a plain row-by-row model:
  alive pairs with their counts, expiry buckets, the dirty journal,
  ``version``, the counters and the engine's arrival log.  After every
  mutation, :meth:`~repro.tdn.graph.TDNGraph.split_by_in_pairs` calls
  lone exactly the interned ids that are no alive pair's target;
* **input form** — a step given as ``(source, target, lifetime)`` tuples
  and the same step given as ``Interaction`` rows (stamped at the step,
  or earlier with the lifetime extended to match) give identical
  solutions and oracle calls for SieveADN, HistApprox, BasicReduction,
  Greedy and DIM.
"""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dim import DIMIndex
from repro.core.tracker import InfluenceTracker, Solution
from repro.tdn.batch import EdgeBatch
from repro.tdn.interaction import Interaction

NODES = 6
MAX_LIFETIME = 6

#: One edge: ``(u, v, lifetime or None, steps stamped before its step)``.
EDGES = st.tuples(
    st.integers(0, NODES - 1),
    st.integers(0, NODES - 1),
    st.one_of(st.none(), st.integers(1, MAX_LIFETIME)),
    st.integers(0, 2),
)
#: A step: the clock gap before it (sometimes a jump) and its edges.
STEPS = st.lists(
    st.tuples(
        st.one_of(st.integers(1, 3), st.integers(20, 400)),
        st.lists(EDGES, max_size=8),
    ),
    min_size=1,
    max_size=15,
)


def step_items(t, edges):
    """The step's items: tuples, or rows stamped ``back`` steps early."""
    items = []
    for u, v, lifetime, back in edges:
        if u == v:
            continue
        source, target = f"n{u}", f"n{v}"
        if back == 0:
            items.append((source, target, lifetime))
        else:
            stamp = max(0, t - back)
            extended = None if lifetime is None else lifetime + (t - stamp)
            items.append(Interaction(source, target, stamp, extended))
    return items


class RowReference:
    """The graph's ingest and expiry, one row at a time, on plain lists."""

    def __init__(self):
        self.time = 0
        self.version = 0
        self.edges = []  # (u, v, expiry), in arrival order
        self.ids = {}
        self.journal = []
        self.log = ([], [], [])

    def intern(self, node):
        return self.ids.setdefault(node, len(self.ids))

    def add(self, u, v, expiry):
        assert self.time < expiry
        uid, vid = self.intern(u), self.intern(v)
        self.edges.append((u, v, expiry))
        self.journal.append(uid)
        self.version += 1
        for column, value in zip(self.log, (uid, vid, expiry)):
            column.append(value)

    def advance(self, t):
        due = sorted((e for e in self.edges if e[2] <= t), key=lambda e: e[2])
        for edge in due:
            self.edges.remove(edge)
            u, v, _ = edge
            if not any((a, b) == (u, v) for a, b, _ in self.edges):
                self.journal.append(self.ids[u])
        if due:
            self.version += 1
        self.time = t

    def state(self):
        pairs = Counter((u, v) for u, v, _ in self.edges)
        buckets = {}
        for u, v, expiry in self.edges:
            if expiry != math.inf:
                buckets.setdefault(int(expiry), []).append((u, v))
        nodes = {u for u, _ in pairs} | {v for _, v in pairs}
        return {
            "time": self.time,
            "version": self.version,
            "pairs": dict(pairs),
            "buckets": buckets,
            "journal": self.journal,
            "counters": (len(self.edges), len(pairs), len(nodes)),
            "log": self.log,
        }


def graph_state(graph):
    log = graph._delta.arrival_log  # noqa: SLF001 - read without a sync
    return {
        "time": graph.time,
        "version": graph.version,
        "pairs": {(u, v): count for u, v, count in graph.alive_pairs_with_counts()},
        "buckets": {
            step: list(bucket)
            for step, bucket in graph._expiry_buckets.items()  # noqa: SLF001
        },
        "journal": graph._dirty_log,  # noqa: SLF001 - test probe
        "counters": (graph.num_edges, graph.num_pairs, graph.num_nodes),
        "log": (log.uids, log.vids, log.expiries),
    }


def assert_lone_ids(graph, state):
    targets = {v for _, v in state["pairs"]}
    id_nodes = graph._id_nodes  # noqa: SLF001 - test probe
    _, lone = graph.split_by_in_pairs(range(len(id_nodes)))
    assert lone == [i for i, node in enumerate(id_nodes) if node not in targets]


class Recorder:
    """A no-op algorithm that keeps the batches ``on_batch`` receives."""

    label = "recorder"

    def __init__(self, graph, oracle):
        self.oracle = oracle
        self.batches = []

    def on_batch(self, t, batch):
        self.batches.append((t, batch))

    def query(self):
        return Solution.empty()


@settings(max_examples=120, deadline=None)
@given(steps=STEPS)
def test_columnar_step_matches_row_by_row_reference(steps):
    tracker = InfluenceTracker(Recorder)
    graph = tracker.graph
    # A live engine that is never synced again: its log keeps every arrival.
    graph.csr()
    reference = RowReference()
    t = 0
    for gap, edges in steps:
        t += gap
        items = step_items(t, edges)
        tracker.step(t, items)
        reference.advance(t)
        for item in items:
            if isinstance(item, Interaction):
                reference.add(item.source, item.target, item.expiry)
            else:
                u, v, lifetime = item
                reference.add(u, v, math.inf if lifetime is None else t + lifetime)
        batch_t, batch = tracker.algorithm.batches[-1]
        assert batch_t == t and isinstance(batch, EdgeBatch)
        state = reference.state()
        assert graph_state(graph) == state
        assert_lone_ids(graph, state)
        # Row iteration keeps each edge's expiry.
        assert [row.expiry for row in batch] == batch.expiries
        # An expiry-only tick between steps.
        graph.advance_to(t + 1)
        reference.advance(t + 1)
        state = reference.state()
        assert graph_state(graph) == state
        assert_lone_ids(graph, state)
        t += 1


#: Tracker factories under test (BasicReduction needs every lifetime <= L).
FACTORIES = {
    "sieve-adn": lambda: InfluenceTracker("sieve-adn", k=2, epsilon=0.2),
    "hist-approx": lambda: InfluenceTracker("hist-approx", k=2, epsilon=0.2),
    "basic-reduction": lambda: InfluenceTracker(
        "basic-reduction", k=2, epsilon=0.2, L=MAX_LIFETIME + 2
    ),
    "greedy": lambda: InfluenceTracker("greedy", k=2),
    "dim": lambda: InfluenceTracker(
        lambda graph, oracle: DIMIndex(2, graph, oracle, seed=5, max_sketches=40)
    ),
}


@settings(max_examples=75, deadline=None)
@given(steps=STEPS, name=st.sampled_from(sorted(FACTORIES)))
def test_tuples_and_rows_give_identical_runs(steps, name):
    as_tuples, as_rows = FACTORIES[name](), FACTORIES[name]()
    t = 0
    for gap, edges in steps:
        t += gap
        tuples, rows = [], []
        for u, v, lifetime, back in edges:
            if u == v:
                continue
            if lifetime is None and name == "basic-reduction":
                lifetime = MAX_LIFETIME
            tuples.append((f"n{u}", f"n{v}", lifetime))
            stamp = max(0, t - back)
            extended = None if lifetime is None else lifetime + (t - stamp)
            rows.append(Interaction(f"n{u}", f"n{v}", stamp, extended))
        assert as_tuples.step(t, tuples) == as_rows.step(t, rows)
        assert as_tuples.oracle_calls == as_rows.oracle_calls
