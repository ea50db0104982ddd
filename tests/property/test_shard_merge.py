"""Property: shard-merged sweeps equal the single-sweep results.

The sharded executor's correctness rests on two algebraic facts — per-set
spread counts are independent of how a batch is partitioned, and
reachability distributes over seed union — plus the kernel clone each
shard thread sweeps agreeing with the serial delta engine.  Hypothesis
drives all three on random TDN streams, partition widths and horizons
(batches long enough to cross 64-set plane boundaries),
calling the clones directly (:meth:`~repro.tdn.csr.DeltaCSR.
kernel_clone`, the identical code shard threads run) so the property
fuzzes the physics without a thread pool.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.executor import merge_shard_counts, shard_slices
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


def build_stream_graph(seed, num_nodes, num_events):
    rng = random.Random(seed)
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.3:
            t += rng.randint(1, 3)
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < 0.1 else rng.randint(1, 30)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return graph


def shard_kernel(graph, reverse=False):
    """The kernel clone one shard thread sweeps (forward or transpose)."""
    return graph.csr().kernel_clone(reverse)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 24),
    num_events=st.integers(5, 120),
    num_shards=st.integers(1, 6),
    horizon_offset=st.one_of(st.none(), st.integers(1, 40)),
    data=st.data(),
)
def test_shard_merged_spread_counts_equal_single_sweep(
    seed, num_nodes, num_events, num_shards, horizon_offset, data
):
    graph = build_stream_graph(seed, num_nodes, num_events)
    engine = shard_kernel(graph)
    ids = list(range(graph.num_interned))
    if not ids:
        return
    id_sets = data.draw(
        st.lists(
            st.lists(st.sampled_from(ids), min_size=1, max_size=4),
            min_size=1,
            max_size=3 * 64 + 8,
        )
    )
    eff = float(graph.time + 1)
    if horizon_offset is not None:
        eff = max(eff, float(graph.time + horizon_offset))

    # The reference: one un-sharded sweep over the whole batch, which the
    # delta-CSR property suite already pins to the serial dict BFS.
    single = engine.spread_counts(id_sets, eff)
    serial = graph.csr().spread_counts(
        id_sets, None if horizon_offset is None else eff
    )
    assert single == serial

    slices = shard_slices(len(id_sets), num_shards)
    shard_results = [
        engine.spread_counts(id_sets[start:stop], eff) for start, stop in slices
    ]
    merged = merge_shard_counts(slices, shard_results, len(id_sets))
    assert merged == single


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 20),
    num_events=st.integers(5, 100),
    num_shards=st.integers(1, 5),
    data=st.data(),
)
def test_shard_merged_ancestors_equal_single_sweep(
    seed, num_nodes, num_events, num_shards, data
):
    graph = build_stream_graph(seed, num_nodes, num_events)
    engine = shard_kernel(graph, reverse=True)
    ids = list(range(graph.num_interned))
    if not ids:
        return
    targets = data.draw(
        st.lists(st.sampled_from(ids), min_size=1, max_size=8, unique=True)
    )
    eff = float(graph.time + 1)
    single = engine.reachable_ids(targets, eff)
    assert single == graph.csr().ancestor_ids(targets, None)
    # Any partition of the seeds merges to the single sweep (a memo
    # closure never shards, but the executor's ancestor_ids still may).
    merged = set()
    for shard in range(num_shards):
        merged |= engine.reachable_ids(targets[shard::num_shards], eff)
    assert merged == single
