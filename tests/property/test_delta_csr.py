"""Property suite for the incrementally maintained delta-CSR engine.

Replays seeded random add/advance streams with the engine *live* (created
before the stream starts, so every mutation flows through the overlay and
tombstone hooks rather than into the initial base build) and checks, at
interleaved probe points:

* pre-compaction: the incremental engine's forward reachability, reverse
  (transpose-backed) ancestry, and bit-plane ``spread_counts`` all agree
  with the reference dict BFS / a from-scratch ``CSRSnapshot.build``;
* the engine's *effective* adjacency (base + overlay, stale entries
  filtered by the ``t + 1`` horizon clamp) is entry-identical to the
  graph's alive pair adjacency with its cached max expiries;
* post-compaction: the compacted base arrays are array-identical to a
  from-scratch build, forward and transpose — on seeded replays and, as
  a hypothesis property, on arbitrary streams;
* the O(1) alive-node / alive-pair counters match full recomputation.

Both the scalar and the vectorized traversal paths are exercised by
parametrizing the ``REPRO_SCALAR_PAIR_LIMIT`` cutover.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.oracle import InfluenceOracle
from repro.influence.reachability import ancestors, reachable_set
from repro.tdn.csr import CSRSnapshot
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.utils.counters import CallCounter


def replay_stream(rng, graph, num_events=220, num_nodes=28, probe_every=19,
                  infinite_fraction=0.1):
    """Yield (step, clock) probe points while mutating ``graph`` in place."""
    t = 0
    for step in range(num_events):
        if rng.random() < 0.15:
            t += rng.randint(1, 5)
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < infinite_fraction else rng.randint(1, 20)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
        if step % probe_every == 0:
            yield step, t


def effective_adjacency(engine, graph):
    """Entry map {(uid, vid): max alive expiry} seen through the engine."""
    floor = graph.time + 1
    best = {}
    base = engine.base
    indptr = base.indptr
    for uid in range(base.num_nodes):
        for slot in range(indptr[uid], indptr[uid + 1]):
            expiry = base.expiries[slot]
            if expiry >= floor:
                key = (uid, int(base.indices[slot]))
                if expiry > best.get(key, -math.inf):
                    best[key] = expiry
    log = engine.arrival_log
    for uid, vid, expiry in zip(log.uids, log.vids, log.expiries):
        if expiry >= floor:
            key = (uid, vid)
            if expiry > best.get(key, -math.inf):
                best[key] = expiry
    return best


def graph_adjacency(graph):
    """The same entry map read off the dict-of-dict substrate."""
    return {
        (graph.node_id(u), graph.node_id(v)): graph._out[u][v].max_expiry
        for u, v in graph.alive_pairs()
    }


@pytest.mark.parametrize("force_vectorized", [False, True])
@pytest.mark.parametrize("seed", [3, 17, 91])
def test_incremental_engine_matches_reference(seed, force_vectorized, monkeypatch):
    if force_vectorized:
        monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", "0")
    rng = random.Random(seed)
    graph = TDNGraph()
    engine = graph.csr()  # live from the start: all mutations hit the overlay
    for _step, t in replay_stream(rng, graph):
        engine = graph.csr()
        # Effective adjacency is entry-identical to the alive dict adjacency.
        assert effective_adjacency(engine, graph) == graph_adjacency(graph)
        nodes = sorted(graph.node_set(), key=repr)
        if not nodes:
            continue
        horizons = [None, t + 1, t + rng.randint(1, 25), math.inf]
        for _ in range(6):
            seeds = rng.sample(nodes, rng.randint(1, min(4, len(nodes))))
            ids = [graph.node_id(s) for s in seeds]
            horizon = rng.choice(horizons)
            expected = reachable_set(graph, seeds, horizon)
            got = {graph.node_of_id(i) for i in engine.reachable_ids(ids, horizon)}
            assert got == expected, (seeds, horizon)
            assert engine.reachable_count(ids, horizon) == len(expected)
            expected_up = ancestors(graph, seeds, horizon)
            got_up = {graph.node_of_id(i) for i in engine.ancestor_ids(ids, horizon)}
            assert got_up == expected_up, (seeds, horizon)
        # Bit-plane batch counts == per-set counts at the same horizon.
        id_sets = [[graph.node_id(n)] for n in nodes]
        id_sets.append([graph.node_id(n) for n in nodes[:3]])
        horizon = t + 2
        batched = engine.spread_counts(id_sets, horizon)
        assert batched == [engine.reachable_count(s, horizon) for s in id_sets]
        # O(1) counters match full recomputation.
        assert graph.num_nodes == len(graph.node_set())
        assert graph.num_pairs == sum(len(nbrs) for nbrs in graph._out.values())


def assert_base_matches_fresh_build(engine, graph):
    """The compacted base is array-identical to a from-scratch build,
    forward and transpose, with overlay and tombstones reset."""
    fresh = CSRSnapshot.build(graph)
    assert engine.base.num_nodes == fresh.num_nodes
    np.testing.assert_array_equal(engine.base.indptr, fresh.indptr)
    np.testing.assert_array_equal(engine.base.indices, fresh.indices)
    np.testing.assert_array_equal(engine.base.expiries, fresh.expiries)
    assert engine.overlay_entries == 0 and engine.tombstones == 0
    # Transpose of the compacted base == transpose of the fresh build:
    # same slot count, per-target grouping, and (target-grouped) content.
    tindptr, tindices, texpiries = engine._transpose_arrays()  # noqa: SLF001
    forder = np.argsort(fresh.indices, kind="stable")
    fsources = np.repeat(
        np.arange(fresh.num_nodes, dtype=np.int64), np.diff(fresh.indptr)
    )[forder]
    np.testing.assert_array_equal(tindices, fsources)
    np.testing.assert_array_equal(texpiries, fresh.expiries[forder])
    fcounts = np.bincount(fresh.indices, minlength=fresh.num_nodes)
    np.testing.assert_array_equal(np.diff(tindptr), fcounts)


@pytest.mark.parametrize("seed", [5, 23])
def test_compaction_is_array_identical_to_fresh_build(seed):
    rng = random.Random(seed)
    graph = TDNGraph()
    engine = graph.csr()
    compactions_seen = engine.compactions
    for _step, _t in replay_stream(rng, graph, num_events=260, probe_every=37):
        engine = graph.csr()
        # Force a compaction at the probe and compare against scratch.
        engine._compact()  # noqa: SLF001 - deliberate white-box forcing
        assert_base_matches_fresh_build(engine, graph)
    assert engine.compactions > compactions_seen


#: One stream operation: an arrival ``u -> u + hop`` (mod the node pool;
#: ``None`` lifetime = infinite), a clock advance, or a forced compaction.
_STREAM_OPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 11),
        st.integers(1, 11),
        st.one_of(st.none(), st.integers(1, 6)),
    ),
    st.tuples(st.just("advance"), st.integers(1, 4)),
    st.tuples(st.just("compact")),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_STREAM_OPS, max_size=70))
def test_compaction_is_array_identical_to_fresh_build_on_any_stream(ops):
    """Array-merge compaction (base arrays + arrival log) == fresh build.

    Every example opens with one compaction window that holds each case
    the merge must get right — parallel edges, a pair that dies and
    re-arrives, a pair that dies for good, an infinite lifetime, and a
    node interned after the base — then replays a random stream of
    arrivals over a 12-node pool (so parallel edges and re-arrivals
    recur), advances and forced compactions.
    """
    graph = TDNGraph()
    graph.add_interaction(Interaction("a", "b", 0, 2))
    graph.add_interaction(Interaction("a", "b", 0, 3))  # parallel edge
    graph.add_interaction(Interaction("b", "c", 0, 1))
    graph.add_interaction(Interaction("c", "a", 0, None))
    engine = graph.csr()  # first base: a->b (3), b->c (1), c->a (inf)
    graph.add_interaction(Interaction("a", "b", 0, 4))  # raises a->b's max
    graph.advance_to(4)  # a->b and b->c die ...
    graph.add_interaction(Interaction("a", "b", 4, 2))  # ... a->b re-arrives
    graph.add_interaction(Interaction("a", "b", 4, 5))
    graph.add_interaction(Interaction("a", "d", 4, None))  # d: new id
    engine._compact()  # noqa: SLF001 - deliberate white-box forcing
    assert_base_matches_fresh_build(engine, graph)
    t = graph.time
    for op in ops:
        if op[0] == "add":
            _, u, hop, lifetime = op
            graph.add_interaction(
                Interaction(f"n{u}", f"n{(u + hop) % 12}", t, lifetime)
            )
        elif op[0] == "advance":
            t += op[1]
            graph.advance_to(t)
        else:
            engine = graph.csr()
            engine._compact()  # noqa: SLF001
            assert_base_matches_fresh_build(engine, graph)
    engine = graph.csr()
    engine._compact()  # noqa: SLF001
    assert_base_matches_fresh_build(engine, graph)


def test_threshold_compaction_amortizes():
    """A long stream compacts rarely; every version change does not rebuild."""
    rng = random.Random(7)
    graph = TDNGraph()
    engine = graph.csr()
    for _ in range(4000):
        u, v = rng.sample(range(200), 2)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", 0, rng.randint(1, 50)))
        graph.csr()
    assert graph.version >= 4000
    # Far fewer compactions than versions: the overlay absorbed the stream.
    assert engine.compactions < 20


def test_spread_many_bitplane_matches_sequential_calls_and_values():
    """Oracle batch evaluation: same values, same call counts, all backends."""
    rng = random.Random(11)
    graph = TDNGraph()
    graph.csr()
    t = 0
    for _ in range(150):
        if rng.random() < 0.2:
            t += 1
            graph.advance_to(t)
        u, v = rng.sample(range(20), 2)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, rng.randint(1, 15)))
    nodes = sorted(graph.node_set(), key=repr)
    candidate_sets = [(n,) for n in nodes] + [tuple(nodes[:4]), (), tuple(nodes[:4])]
    for horizon in (None, t + 3):
        for max_cache in (200_000, 0, 3):
            batched_counter = CallCounter()
            batched = InfluenceOracle(
                graph, batched_counter, max_cache_entries=max_cache
            )
            batched_values = batched.spread_many(candidate_sets, horizon)

            sequential_counter = CallCounter()
            sequential = InfluenceOracle(
                graph, sequential_counter, max_cache_entries=max_cache
            )
            sequential_values = [
                sequential.spread(s, horizon) for s in candidate_sets
            ]
            assert batched_values == sequential_values
            assert batched_counter.total == sequential_counter.total

            dict_counter = CallCounter()
            dict_oracle = InfluenceOracle(
                graph, dict_counter, backend="dict", max_cache_entries=max_cache
            )
            assert dict_oracle.spread_many(candidate_sets, horizon) == batched_values
            assert dict_counter.total == batched_counter.total
