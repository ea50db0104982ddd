"""Property suite for the arrival log behind the delta engine.

:class:`~repro.tdn.csr.DeltaCSR` records every edge that arrived since
its base in one append-only :class:`~repro.kernels.ArrivalLog`, which
:meth:`TDNGraph.add_batch` extends once per batch.  Sweeps read the log
through two lazy views: numpy rows for the vectorized and bit-plane
sweeps, and per-node dicts for the scalar walks.  Two properties pin it:

* **ingest** — adding a stream one edge at a time and one batch at a
  time leaves the same state: log columns, the engine's base arrays
  after compactions, counters, the dirty journal (with its trim points),
  the expiry buckets and ``version``.  A batch holding an edge that is
  not alive raises before anything is mutated;
* **sweeps** — with a populated log and a stale base, every sweep on
  both kernel paths equals the dict reference: ``reachable_ids``,
  ``spread_counts``, weighted sums, first-reach level counts, derived
  fold node values, ``ancestor_ids`` and ``ancestor_bottlenecks``.
  Horizons above ``t + 1`` make rows below the horizon matter, so a
  sweep that does not filter log rows by expiry fails here.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.reachability import (
    ancestor_bottlenecks,
    ancestors,
    reachable_set,
)
from repro.kernels import TimeDecayFold, dense_weight_sum
from repro.tdn.csr import SCALAR_LIMIT_ENV, DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

#: One edge of a step: ``(source, target, lifetime)``; ``None`` = infinite.
EDGES = st.tuples(
    st.integers(0, 9), st.integers(0, 9), st.one_of(st.none(), st.integers(1, 9))
)

#: A stream: per step, the clock gap before it and its batch.
STEPS = st.lists(
    st.tuples(st.integers(0, 3), st.lists(EDGES, max_size=10)),
    min_size=1,
    max_size=20,
)


def interactions(batch, t):
    return [
        Interaction(f"n{u}", f"n{v}", t, lifetime)
        for u, v, lifetime in batch
        if u != v
    ]


def graph_state(graph):
    """Everything ingest and expiry maintain, as plain comparable values."""
    engine = graph._delta  # noqa: SLF001 - test probe
    state = {
        "time": graph.time,
        "version": graph.version,
        "counters": (graph.num_edges, graph.num_pairs, graph.num_nodes),
        "ids": list(graph._id_nodes),  # noqa: SLF001
        "out": {
            (u, v): (dict(pair.expiries), pair.count, pair.max_expiry)
            for u, nbrs in graph._out.items()  # noqa: SLF001
            for v, pair in nbrs.items()
        },
        "in": {
            (v, u)
            for v, nbrs in graph._in.items()  # noqa: SLF001
            for u in nbrs
        },
        "buckets": {
            step: list(bucket)
            for step, bucket in graph._expiry_buckets.items()  # noqa: SLF001
        },
        "keys": list(graph._expiry_buckets),  # noqa: SLF001 - insertion order
        "journal": list(graph._dirty_log),  # noqa: SLF001
        "cursor": graph.dirty_cursor,
    }
    if engine is not None:
        log = engine.arrival_log
        base = engine.base
        state["engine"] = {
            "log": (list(log.uids), list(log.vids), list(log.expiries)),
            "base": (
                base.indptr.tolist(),
                base.indices.tolist(),
                base.expiries.tolist(),
            ),
            "tombstones": engine.tombstones,
            "compactions": engine.compactions,
            "version": engine.version,
        }
    return state


@settings(max_examples=80, deadline=None)
@given(
    steps=STEPS,
    live_at=st.integers(0, 20),
    journal_max=st.integers(1, 12),
    compact_min=st.integers(1, 16),
)
def test_batch_ingest_matches_per_edge_ingest(
    steps, live_at, journal_max, compact_min
):
    with pytest.MonkeyPatch.context() as patch:
        # Small thresholds put journal trims inside batches and make
        # csr() compact every few steps.
        patch.setattr(DeltaCSR, "COMPACT_MIN", compact_min)
        patch.setattr(TDNGraph, "DIRTY_LOG_MAX", journal_max)
        per_edge, batched = TDNGraph(), TDNGraph()
        t = 0
        for index, (gap, batch) in enumerate(steps):
            t += gap
            rows = interactions(batch, t)
            for graph in (per_edge, batched):
                if index == live_at:
                    graph.csr()
                graph.advance_to(t)
            for row in rows:
                per_edge.add_interaction(row)
            assert batched.add_batch(rows) == len(rows)
            assert graph_state(batched) == graph_state(per_edge)
            if per_edge._delta is not None:  # noqa: SLF001
                per_edge.csr()
                batched.csr()
                assert graph_state(batched) == graph_state(per_edge)


def test_batch_with_a_dead_edge_mutates_nothing():
    graph = TDNGraph()
    graph.csr()
    graph.add_batch([Interaction("a", "b", 0, 5), Interaction("b", "c", 0, None)])
    graph.advance_to(3)
    before = graph_state(graph)
    for dead in (
        Interaction("x", "y", 0, 2),  # expired at 2
        Interaction("x", "y", 4, 2),  # arrives after the clock
    ):
        with pytest.raises(ValueError, match="not alive"):
            graph.add_batch([Interaction("c", "d", 3, 4), dead])
        assert graph_state(graph) == before


def test_empty_batch_is_a_no_op():
    graph = TDNGraph()
    graph.csr()
    before = graph_state(graph)
    assert graph.add_batch([]) == 0
    assert graph.add_batch(iter(())) == 0
    assert graph_state(graph) == before


# ----------------------------------------------------------------------
# Sweep differential
# ----------------------------------------------------------------------
def replay_live(steps, live_at):
    """A graph whose engine went live mid-stream: a base plus a log."""
    graph = TDNGraph()
    t = 0
    for index, (gap, batch) in enumerate(steps):
        if index == live_at:
            graph.csr()
        t += gap
        graph.advance_to(t)
        graph.add_batch(interactions(batch, t))
    return graph


def level_counts(graph, seeds, horizon):
    """First-reach hop-level histogram of a dict BFS."""
    level = {node: 0 for node in seeds}
    queue = deque(level)
    while queue:
        node = queue.popleft()
        for successor in graph.out_neighbors(node, horizon):
            if successor not in level:
                level[successor] = level[node] + 1
                queue.append(successor)
    counts = [0] * (max(level.values()) + 1 if level else 0)
    for depth in level.values():
        counts[depth] += 1
    return counts


@pytest.mark.parametrize("scalar_limit", ["0", "1000000"])
@settings(max_examples=60, deadline=None)
@given(steps=STEPS, live_at=st.integers(0, 6), data=st.data())
def test_sweeps_over_a_live_log_match_the_dict_reference(
    scalar_limit, steps, live_at, data
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SCALAR_LIMIT_ENV, scalar_limit)
        graph = replay_live(steps, live_at)
        engine = graph.csr()
    if not graph.num_interned:
        return
    t = graph.time
    floor = t + 1
    nodes = [graph.node_of_id(i) for i in range(graph.num_interned)]
    ids_of = lambda group: {graph.node_id(node) for node in group}  # noqa: E731
    id_sets = data.draw(
        st.lists(
            st.lists(st.integers(0, graph.num_interned - 1), max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    weights = np.asarray(
        [1.0 + (i % 7) * 0.25 for i in range(graph.num_interned)], dtype=np.float64
    )
    forward = engine.kernel_clone(False)
    fresh = DeltaCSR(graph)  # empty log: the from-scratch comparator
    fold = TimeDecayFold(lam=0.25)
    for horizon in (None, floor, floor + 1, floor + 3, floor + 6, math.inf):
        eff = floor if horizon is None else max(horizon, floor)
        expected = [
            ids_of(reachable_set(graph, [nodes[i] for i in ids], eff))
            for ids in id_sets
        ]
        for ids, reached in zip(id_sets, expected):
            assert engine.reachable_ids(ids, horizon) == reached
        assert engine.spread_counts(id_sets, horizon) == [len(r) for r in expected]
        assert engine.weighted_spread_sums(id_sets, horizon, weights) == [
            dense_weight_sum(weights, reached) for reached in expected
        ]
        assert forward.spread_level_counts(id_sets, eff) == [
            level_counts(graph, [nodes[i] for i in ids], eff) for ids in id_sets
        ]
        if eff != math.inf:  # the decay curve needs a finite horizon
            np.testing.assert_array_equal(
                engine.fold_node_values(fold, horizon),
                fresh.fold_node_values(fold, horizon),
            )
        for ids in id_sets:
            assert engine.ancestor_ids(ids, horizon) == ids_of(
                ancestors(graph, [nodes[i] for i in ids], eff)
            )
    labels = data.draw(
        st.dictionaries(
            st.integers(0, graph.num_interned - 1),
            st.sampled_from([floor, floor + 2, floor + 5, math.inf]),
            max_size=4,
        )
    )
    expected_labels = ancestor_bottlenecks(
        graph, {nodes[i]: label for i, label in labels.items()}
    )
    assert engine.ancestor_bottlenecks(labels) == {
        graph.node_id(node): label for node, label in expected_labels.items()
    }
