"""Differential test of the batched ``spread_many`` protocol.

``spread_many`` walks a batch once, probing the memo's dict directly and
bumping the call counter and the hit/miss registry counters once per
batch.  Every miss is counted, evaluated and memoized where the walk
finds it.  A serial csr ``count`` oracle below the scalar cutover walks
each miss alone, with no ``_evaluate_misses`` call; every other leaf
evaluates the batch's distinct misses in at most one ``_evaluate_misses``
call, made at the first miss, and serves each miss from that table.  The
contract is that none of this is observable: against a twin oracle that
runs ``[spread(s) for s in sets]`` over an identical graph, every value,
the oracle call count, the memo's FIFO key order and the
``repro_oracle_memo_{hits,misses}`` deltas must agree after every batch,
also after a walk or a sweep that raises mid-batch.

Tiny memo capacities (1–3 entries) make a batch evict its own entries
mid-batch, which makes it also sweep the keys it may evict; batches carry
duplicates, empty sets and never-interned nodes; and the graph mutates
between batches, so dirty-cone eviction runs too.  The batch and its
sequential twin share one miss evaluator, so the oracle configurations
below cover each of its leaves: all four semantics, the three weight
forms (uniform default, mapping, callable), and the dict backend's
reference walk.  A csr engine built with a zero scalar cutover puts the
count leaf on ``spread_counts`` instead of the scalar walk, and a lone
miss (every sequential ``spread``, and a batch with one distinct miss)
on the per-set walk instead of a one-plane sweep; a cutover of 3 pairs,
with compaction after 2 log rows or tombstones, moves one replay across
it both ways as pairs arrive and expire.  A drawn executor with a
one-set floor shards every csr batch of two or more misses; a lone miss
stays on the caller's thread.  Since the batch and its twin share that
evaluator, the sequential values are also pinned, value and type,
against an independent dict-BFS reference.
"""

import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.influence.oracle import InfluenceOracle
from repro.kernels.traversal import TraversalKernel
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel import ShardedOracleExecutor
from repro.tdn.csr import DeltaCSR
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
    scalar_limit=st.sampled_from([None, "0", "3"]),
    sharded=st.booleans(),
    script=rounds,
)
def test_spread_many_matches_sequential_spread(
    capacity, config, scalar_limit, sharded, script
):
    replay_config(capacity, config, scalar_limit, sharded, script)


#: Four pairs arrive one by one, then all expire: a 3-pair cutover is
#: crossed to the sweep and back.
CROSSING_SCRIPT = [
    ([("a", "b", 1, 0), ("b", "c", 1, 0), ("c", "d", 1, 0)], [["a"], ["b"]], None),
    ([("d", "e", 1, 0)], [["a"], ["b", "d"], ["a"]], None),
    ([("a", "a", None, 2)], [["a"], ["c"], ["ghost", "a"]], None),
]


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 3),
    scalar_limit=st.sampled_from([None, "3"]),
    script=rounds,
)
@example(capacity=2, scalar_limit="3", script=CROSSING_SCRIPT)
def test_scalar_count_leaf_evaluates_misses_in_place(capacity, scalar_limit, script):
    """The serial csr count leaf alone, so that every example drives it."""
    replay_config(capacity, ORACLE_CONFIGS[0], scalar_limit, False, script)


def replay_config(capacity, config, scalar_limit, sharded, script):
    backend, semantics, options = config
    batched_graph, sequential_graph = TDNGraph(), TDNGraph()
    if scalar_limit is not None and backend == "csr":
        # The engine reads its cutover once, when the first csr() builds it.
        with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": scalar_limit}):
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
    # Past 2 log rows plus tombstones the engine compacts, so expired pairs
    # leave its entry count and a 3-pair cutover is crossed both ways.
    compact_min = 2 if scalar_limit == "3" else DeltaCSR.COMPACT_MIN
    try:
        with mock.patch.object(DeltaCSR, "COMPACT_MIN", compact_min):
            replay(batched, sequential, semantics, options, script)
    finally:
        if executor is not None:
            executor.close()


def replay(batched, sequential, semantics, options, script):
    batched_graph, sequential_graph = batched.graph, sequential.graph
    evaluations = []
    evaluate = batched._evaluate_misses  # noqa: SLF001 - counting engine calls

    def count_evaluations(key_sets, min_expiry, prefetch):
        evaluations.append(len(key_sets))
        return evaluate(key_sets, min_expiry, prefetch)

    batched._evaluate_misses = count_evaluations  # noqa: SLF001
    serial_count = (
        batched.backend == "csr" and semantics == "count" and batched.executor is None
    )
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
        if serial_count and batched_graph.csr().scalar_reach(horizon) is not None:
            # Below the cutover each miss walks where the protocol finds it.
            assert evaluations == []
        else:
            # All distinct misses of a batch go to one engine call.
            assert len(evaluations) <= 1
        # spread() syncs lazily (an all-empty batch never reaches the
        # memo), so bring both tables to the graph before comparing.
        batched._memo.sync()  # noqa: SLF001
        sequential._memo.sync()  # noqa: SLF001
        assert list(batched._memo.data.items()) == list(  # noqa: SLF001
            sequential._memo.data.items()  # noqa: SLF001
        )


class WalkFault(Exception):
    pass


def fault_on_walk(n):
    """``reach_scalar`` that raises on its ``n``-th call (1-based)."""
    reach_scalar = TraversalKernel.reach_scalar
    walks = []

    def walk(kernel, seed_ids, eff):
        walks.append(1)
        if len(walks) == n:
            raise WalkFault(n)
        return reach_scalar(kernel, seed_ids, eff)

    return mock.patch.object(TraversalKernel, "reach_scalar", walk)


class SweepFault(Exception):
    pass


def fault_on_sweep():
    """An ``_evaluate_misses`` that raises: every sweep leaf fails."""

    def sweep(oracle, key_sets, min_expiry, prefetch):
        raise SweepFault

    return mock.patch.object(InfluenceOracle, "_evaluate_misses", sweep)


#: A hit, in-batch duplicates, an empty set and a never-interned seed
#: (which walks nothing): 4 walks at capacities 3 and up, more below.
FAULT_BATCH = [
    {"a"}, {"b"}, {"c", "d"}, {"b"}, set(), {"ghost"}, {"e"}, {"a", "e"}, {"c", "d"}
]

#: The leaves that sweep their misses once the scalar cutover is zero.
SWEEP_LEAVES = [
    ("count", {}),
    ("weighted_sum", {"weights": {"a": 0.3, "c": 0.7, "ghost": 1.1}}),
    ("hop_discount", {}),
]


def fault_twins(capacity, scalar_limit=None, **options):
    """Two oracles over identical 3-edge graphs, each primed with one hit."""
    twins = []
    for _ in range(2):
        graph = TDNGraph()
        if scalar_limit is not None:
            with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": scalar_limit}):
                graph.csr()
        oracle = InfluenceOracle(graph, max_cache_entries=capacity, **options)
        for source, target in (("a", "b"), ("b", "c"), ("d", "e")):
            graph.add_interaction(Interaction(source, target, graph.time, None))
        oracle.spread({"a"})
        twins.append(oracle)
    return twins


def check_fault_leaves_the_sequential_state(batched, sequential, fault, error):
    """A batch that raises under ``fault()`` leaves what a raising
    sequential ``spread`` loop does.

    The calls counted, the memo's items in FIFO order and the hit/miss
    registry deltas match the twin's, the memo holds only values, and the
    same batch then returns the twin's values.
    """

    def run_sequential():
        return [sequential.spread(nodes) for nodes in FAULT_BATCH]

    before = memo_counters()
    with fault(), pytest.raises(error):
        batched.spread_many(FAULT_BATCH)
    middle = memo_counters()
    with fault(), pytest.raises(error):
        run_sequential()
    after = memo_counters()

    assert batched.calls == sequential.calls
    assert tuple(m - b for m, b in zip(middle, before)) == tuple(
        a - m for a, m in zip(after, middle)
    )
    batched_items = list(batched._memo.data.items())  # noqa: SLF001
    assert batched_items == list(sequential._memo.data.items())  # noqa: SLF001
    assert all(isinstance(value, (int, float)) for _, value in batched_items)

    assert batched.spread_many(FAULT_BATCH) == run_sequential()
    assert batched.calls == sequential.calls
    assert list(batched._memo.data.items()) == list(  # noqa: SLF001
        sequential._memo.data.items()  # noqa: SLF001
    )


@pytest.mark.parametrize("capacity", [1, 2, 3, 200])
@pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
def test_walk_that_raises_mid_batch_leaves_the_sequential_state(capacity, fail_at):
    """A raising scalar walk leaves what a raising sequential ``spread`` does."""
    batched, sequential = fault_twins(capacity)
    for oracle in (batched, sequential):
        assert oracle.graph.csr().scalar_reach(None) is not None  # the scalar leaf
    check_fault_leaves_the_sequential_state(
        batched, sequential, lambda: fault_on_walk(fail_at), WalkFault
    )


@pytest.mark.parametrize("capacity", [1, 2, 3, 200])
@pytest.mark.parametrize(
    "semantics, options", SWEEP_LEAVES, ids=[leaf for leaf, _ in SWEEP_LEAVES]
)
def test_sweep_that_raises_leaves_the_sequential_state(capacity, semantics, options):
    """A raising sweep counts only the miss that asked for it, as the
    sequential loop's first miss does, and memoizes nothing of the batch."""
    batched, sequential = fault_twins(capacity, "0", semantics=semantics, **options)
    for oracle in (batched, sequential):
        assert oracle.graph.csr().scalar_reach(None) is None  # a sweep leaf
    check_fault_leaves_the_sequential_state(
        batched, sequential, fault_on_sweep, SweepFault
    )


@pytest.mark.parametrize(
    "capacity, batch, swept",
    [
        # Two over capacity, and the two oldest entries are not asked for.
        (5, [{"e"}, {"d"}, {"c"}], [{"e"}]),
        # {"e"} evicts {"a"} before the batch asks for it again.
        (4, [{"e"}, {"d"}, {"a"}], [{"e"}, {"a"}]),
    ],
)
def test_capacity_pressure_sweeps_only_what_the_batch_can_evict(
    capacity, batch, swept
):
    """Past capacity, the one sweep adds only the hits among the oldest
    entries the batch can evict, not every hit of the batch."""
    batched, sequential = fault_twins(capacity, "0")
    for oracle in (batched, sequential):
        for nodes in ({"b"}, {"c"}, {"d"}):
            oracle.spread(nodes)
    sweeps = []
    evaluate = batched._evaluate_misses  # noqa: SLF001 - recording engine calls

    def record(key_sets, min_expiry, prefetch):
        sweeps.append(list(key_sets))
        return evaluate(key_sets, min_expiry, prefetch)

    batched._evaluate_misses = record  # noqa: SLF001
    assert batched.spread_many(batch) == [sequential.spread(s) for s in batch]
    assert sweeps == [[frozenset(nodes) for nodes in swept]]
    assert batched.calls == sequential.calls
    assert list(batched._memo.data.items()) == list(  # noqa: SLF001
        sequential._memo.data.items()  # noqa: SLF001
    )
