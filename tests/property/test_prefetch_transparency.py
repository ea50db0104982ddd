"""Property: prefetching through ``spread_many`` is invisible.

``InfluenceOracle.spread_many(..., prefetch=...)`` may evaluate the
announced sets in the idle planes of a sweep it already runs, keeping
the values aside until a later miss asks for one.  Its contract is that
nothing observable moves: against a twin oracle on the same graph that
gets the same requests without ``prefetch``, every value (and its type),
the call count and the memo's keys, values and FIFO order agree after
every request.  Hypothesis drives random graphs (mutated between
requests, so versions bump, pairs expire and the clock ticks), horizons,
every semantics, both backends, serial and sharded evaluation and tiny
memo capacities.  A prefetched value must never outlive the graph
version and time it was taken at: values are dropped lazily, so after
every request each value still servable (stamped with the current
version and time) is checked against a fresh evaluation, and any served
across a version would show as a value differing from the twin's.
"""

import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.oracle import InfluenceOracle
from repro.parallel import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

#: Interned as the stream runs; "ghost" never appears in an interaction.
NODES = ("a", "b", "c", "d", "e", "f", "g", "ghost")

node_sets = st.lists(st.sampled_from(NODES), min_size=0, max_size=3)
mutations = st.lists(
    st.tuples(
        st.sampled_from(NODES[:-1]),
        st.sampled_from(NODES[:-1]),
        st.one_of(st.none(), st.integers(1, 6)),
        st.integers(0, 2),
    ),
    max_size=4,
)


def requests(pool):
    """Rounds whose requested and announced sets share one small pool,
    so announced sets are often asked for later, after mutations."""
    return st.tuples(
        mutations,
        st.lists(st.sampled_from(pool), min_size=1, max_size=6),  # requested
        st.lists(st.sampled_from(pool), max_size=6),  # announced (prefetch)
        st.sampled_from([None, 1, 3]),  # horizon offset
        st.booleans(),  # True: one spread() per set instead of spread_many
    )


scripts = st.lists(
    st.lists(st.sampled_from(NODES), min_size=1, max_size=3), min_size=3, max_size=8
).flatmap(
    lambda pool: st.lists(requests(pool), min_size=1, max_size=8)
)


def callable_weight(node):
    return 0.1 * (NODES.index(node) + 1)


#: (backend, semantics, extra oracle kwargs).
ORACLE_CONFIGS = [
    ("csr", "count", {}),
    ("csr", "hop_discount", {}),
    ("csr", "time_decay", {}),
    ("csr", "weighted_sum", {"default_weight": 0.1}),
    ("csr", "weighted_sum", {"weights": {"a": 0.3, "c": 0.7, "ghost": 1.1}}),
    ("csr", "weighted_sum", {"weights": callable_weight}),
    ("dict", "count", {}),
    ("dict", "weighted_sum", {"weights": {"a": 0.3, "c": 0.7}}),
]


def apply(graph, source, target, lifetime, advance):
    graph.advance_to(graph.time + advance)
    if source != target:
        graph.add_interaction(Interaction(source, target, graph.time, lifetime))


def memo_items(oracle):
    oracle._memo.sync()  # noqa: SLF001 - spread() syncs lazily
    return list(oracle._memo.data.items())  # noqa: SLF001


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 3, 1000]),
    config=st.sampled_from(ORACLE_CONFIGS),
    # Mostly on the bit-plane path, the only one anything rides.
    vectorized=st.sampled_from([True, True, True, False]),
    sharded=st.booleans(),
    chain=st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=6, max_size=6),
    script=scripts,
)
def test_prefetch_is_invisible(capacity, config, vectorized, sharded, chain, script):
    backend, semantics, options = config
    graph = TDNGraph()
    if vectorized and backend == "csr":
        # Below the cutover every count walks per set and nothing rides;
        # a zero cutover puts the csr leaves on their bit-plane sweeps.
        with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": "0"}):
            graph.csr()
    # A chain a -> b -> ... -> g interns every node but "ghost"; its
    # drawn lifetimes make it expire piece by piece as the clock moves.
    for source, target, lifetime in zip(NODES, NODES[1:-1], chain):
        graph.add_interaction(Interaction(source, target, 0, lifetime))
    executor = (
        ShardedOracleExecutor(2, min_batch=1)
        if sharded and backend == "csr"
        else None
    )

    def make(**kwargs):
        return InfluenceOracle(
            graph,
            backend=backend,
            semantics=semantics,
            parallel=executor,
            **options,
            **kwargs,
        )

    prefetching, plain = make(max_cache_entries=capacity), make(
        max_cache_entries=capacity
    )
    try:
        for mutation_list, sets, announced, offset, one_by_one in script:
            for mutation in mutation_list:
                apply(graph, *mutation)
            horizon = None if offset is None else graph.time + offset
            if one_by_one:
                # spread() takes no prefetch; it may be served one.
                got = [prefetching.spread(nodes, horizon) for nodes in sets]
                expected = [plain.spread(nodes, horizon) for nodes in sets]
            else:
                got = prefetching.spread_many(
                    sets, horizon, prefetch=lambda: iter(announced)
                )
                expected = plain.spread_many(sets, horizon)
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]
            assert prefetching.calls == plain.calls
            assert memo_items(prefetching) == memo_items(plain)
            # Held values are lazily dropped: only those stamped with the
            # current version and time can ever be served.
            held = prefetching._prefetched  # noqa: SLF001
            stamp = prefetching._prefetch_stamp  # noqa: SLF001
            if held and stamp == (graph.version, graph.time):
                fresh = make(max_cache_entries=0)
                for (key_horizon, key_nodes, *_), value in held.items():
                    again = fresh.spread(key_nodes, key_horizon)
                    assert (value, type(value)) == (again, type(again))
    finally:
        if executor is not None:
            executor.close()
