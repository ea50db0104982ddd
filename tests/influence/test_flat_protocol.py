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
runs too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.oracle import InfluenceOracle
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

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


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 3),
    semantics=st.sampled_from(["count", "hop_discount"]),
    script=rounds,
)
def test_spread_many_matches_sequential_spread(capacity, semantics, script):
    batched_graph, sequential_graph = TDNGraph(), TDNGraph()
    batched = InfluenceOracle(
        batched_graph, max_cache_entries=capacity, semantics=semantics
    )
    sequential = InfluenceOracle(
        sequential_graph, max_cache_entries=capacity, semantics=semantics
    )
    evaluations = []
    evaluate = batched._evaluate_batch  # noqa: SLF001 - counting engine calls

    def counted_evaluate(key_sets, min_expiry):
        evaluations.append(len(key_sets))
        return evaluate(key_sets, min_expiry)

    batched._evaluate_batch = counted_evaluate  # noqa: SLF001
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
