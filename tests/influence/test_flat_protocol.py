"""Differential test of the batched ``spread_many`` protocol.

``spread_many`` walks a batch once, probing the memo's dict directly and
bumping the call counter and the hit/miss registry counters once per
batch, then evaluates every distinct miss in one engine call.  Its
contract is that none of this is observable: against a twin oracle that
runs ``[spread(s) for s in sets]`` over an identical graph, every value,
the oracle call count, the memo's FIFO key order and the
``repro_oracle_memo_{hits,misses}`` deltas must agree after every batch.

Tiny memo capacities (1–3 entries) make reservations evict each other
mid-batch; batches carry duplicates, empty sets and never-interned
nodes; and the graph mutates between batches, so dirty-cone eviction
runs too.  Both protocols share one miss evaluator, so the oracle
configurations below cover each of its leaves: all four semantics, the
three weight forms (uniform default, mapping, callable), and the dict
backend's reference walk.  A csr engine built with a zero scalar cutover
puts the count leaf on ``spread_counts`` instead of the scalar shortcut,
and a lone miss (every sequential ``spread``, and a batch with one
distinct miss) on the per-set walk instead of a one-plane sweep.  A
drawn executor with a one-set floor shards every csr batch of two or
more misses; a lone miss stays on the caller's thread.
Since both protocols share that evaluator, the sequential values are
also pinned, value and type, against an independent dict-BFS reference.
"""

import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.oracle import InfluenceOracle
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from tests.property.test_fold_semantics import bfs_levels, reference_decay_terms

#: Interned as the stream runs; "ghost" never appears in an interaction.
NODES = ("a", "b", "c", "d", "e", "ghost")

node_sets = st.lists(st.sampled_from(NODES), min_size=0, max_size=3)
batches = st.lists(node_sets, min_size=1, max_size=4).flatmap(
    # Repeat drawn sets so in-batch duplicates are common.
    lambda sets: st.lists(st.sampled_from(sets), min_size=1, max_size=4)
)
mutations = st.lists(
    st.tuples(
        st.sampled_from(NODES[:-1]),
        st.sampled_from(NODES[:-1]),
        st.one_of(st.none(), st.integers(1, 6)),
        st.integers(0, 2),
    ),
    max_size=3,
)
rounds = st.lists(
    st.tuples(mutations, batches, st.sampled_from([None, 1, 3])),
    min_size=1,
    max_size=8,
)


def callable_weight(node):
    return 0.1 * (NODES.index(node) + 1)


#: (backend, semantics, extra oracle kwargs): one per evaluator leaf.
ORACLE_CONFIGS = [
    ("csr", "count", {}),
    ("csr", "hop_discount", {}),
    ("csr", "time_decay", {}),
    ("csr", "weighted_sum", {"default_weight": 0.1}),
    ("csr", "weighted_sum", {"weights": {"a": 0.3, "c": 0.7, "ghost": 1.1}}),
    ("csr", "weighted_sum", {"weights": callable_weight}),
    ("dict", "count", {}),
    ("dict", "weighted_sum", {"weights": {"a": 0.3, "c": 0.7, "ghost": 1.1}}),
    ("dict", "weighted_sum", {"weights": callable_weight}),
]


def reference_value(graph, semantics, options, nodes, horizon):
    """``f_t(nodes)`` from a dict BFS, at the folds' default parameters."""
    eff = float(graph.time + 1)
    if horizon is not None:
        eff = max(eff, horizon)
    levels = bfs_levels(graph, set(nodes), eff)
    if semantics == "count":
        return len(levels)
    if semantics == "hop_discount":
        return sum((0.5**level for level in levels.values()), 0.0)
    if semantics == "time_decay":
        terms = reference_decay_terms(graph, 0.1, eff)
        return sum((terms.get(node, 1.0) for node in levels), 0.0)
    weights = options.get("weights") or {}
    default = options.get("default_weight", 1.0)
    weight = weights if callable(weights) else lambda n: weights.get(n, default)
    return sum((weight(node) for node in levels), 0.0)


def memo_counters():
    values = metrics_registry().counter_values()
    return (
        values[metric_names.ORACLE_MEMO_HITS_TOTAL],
        values[metric_names.ORACLE_MEMO_MISSES_TOTAL],
    )


def apply(graph, source, target, lifetime, advance):
    graph.advance_to(graph.time + advance)
    if source != target:
        graph.add_interaction(Interaction(source, target, graph.time, lifetime))


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 3),
    config=st.sampled_from(ORACLE_CONFIGS),
    vectorized=st.booleans(),
    sharded=st.booleans(),
    script=rounds,
)
def test_spread_many_matches_sequential_spread(
    capacity, config, vectorized, sharded, script
):
    backend, semantics, options = config
    batched_graph, sequential_graph = TDNGraph(), TDNGraph()
    if vectorized and backend == "csr":
        # The engine reads its cutover once, when the first csr() builds it.
        with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": "0"}):
            batched_graph.csr()
            sequential_graph.csr()
    executor = (
        ShardedOracleExecutor(2, min_batch=1)
        if sharded and backend == "csr"
        else None
    )
    batched, sequential = (
        InfluenceOracle(
            graph,
            max_cache_entries=capacity,
            backend=backend,
            semantics=semantics,
            parallel=executor,
            **options,
        )
        for graph in (batched_graph, sequential_graph)
    )
    try:
        replay(batched, sequential, semantics, options, script)
    finally:
        if executor is not None:
            executor.close()


def replay(batched, sequential, semantics, options, script):
    batched_graph, sequential_graph = batched.graph, sequential.graph
    evaluations = []
    evaluate = batched._evaluate_batch  # noqa: SLF001 - counting engine calls

    def count_evaluations(key_sets, min_expiry):
        evaluations.append(len(key_sets))
        return evaluate(key_sets, min_expiry)

    batched._evaluate_batch = count_evaluations  # noqa: SLF001
    for mutation_list, sets, horizon_offset in script:
        for mutation in mutation_list:
            apply(batched_graph, *mutation)
            apply(sequential_graph, *mutation)
        horizon = (
            None if horizon_offset is None
            else batched_graph.time + horizon_offset
        )
        before = memo_counters()
        del evaluations[:]
        got = batched.spread_many(sets, horizon)
        middle = memo_counters()
        expected = [sequential.spread(nodes, horizon) for nodes in sets]
        after = memo_counters()

        assert got == expected
        assert [type(value) for value in got] == [type(v) for v in expected]
        reference = [
            reference_value(sequential_graph, semantics, options, nodes, horizon)
            for nodes in sets
        ]
        assert expected == pytest.approx(reference, rel=1e-12, abs=1e-12)
        assert [type(v) for v in expected] == [type(r) for r in reference]
        assert batched.calls == sequential.calls
        assert tuple(m - b for m, b in zip(middle, before)) == tuple(
            a - m for a, m in zip(after, middle)
        )
        # All distinct misses of a batch go to one engine call.
        assert len(evaluations) <= 1
        # spread() syncs lazily (an all-empty batch never reaches the
        # memo), so bring both tables to the graph before comparing.
        batched._memo.sync()  # noqa: SLF001
        sequential._memo.sync()  # noqa: SLF001
        assert list(batched._memo.data.items()) == list(  # noqa: SLF001
            sequential._memo.data.items()  # noqa: SLF001
        )
