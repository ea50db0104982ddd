"""Property suite for the kernel's sort-free frontier dedup.

The vectorized and bit-plane sweeps drop repeated ids from every seed
frontier and every round's frontier with a scratch-slot pass instead of
``np.unique``, so frontiers come out in input order rather than sorted.
These properties drive that dedup with duplicate-heavy inputs — seed
sets drawn with repeats from a few ids, dense random CSR bases with
parallel entries, and arrival overlays that re-reach the same nodes in
one round — and pin every sweep to a plain dict reference:

* ``reachable_ids`` / ``reachable_count``, forward and reverse;
* ``spread_counts`` and ``weighted_spread_sums`` (bit-identical: reached
  ids are summed in ascending order whatever the frontier order);
* ``ancestor_ids`` on a live delta engine;
* seed rejection: the vector and bit-plane paths name the same id.

A dedup that drops one id, or keeps a duplicate, fails these.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.reachability import ancestors
from repro.kernels import dense_weight_sum, seed_range_error
from repro.kernels.traversal import (
    ArrivalLog,
    LogOverlay,
    TraversalKernel,
    build_transpose,
)
from repro.tdn.csr import SCALAR_LIMIT_ENV
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

#: Expiry draws; ``inf`` stands for an infinite-lifetime edge.
EXPIRIES = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0, math.inf])


@st.composite
def csr_with_overlay(draw):
    """``(num_nodes, base edges, overlay edges)`` of a random delta state.

    Base edges stay inside the first ``base_nodes`` ids, as a compacted
    base does; overlay edges may touch any id, as arrivals after it do.
    Both lists may repeat an edge.
    """
    num_nodes = draw(st.integers(2, 24))
    base_nodes = draw(st.integers(1, num_nodes))
    base = draw(
        st.lists(
            st.tuples(
                st.integers(0, base_nodes - 1),
                st.integers(0, base_nodes - 1),
                EXPIRIES,
            ),
            max_size=90,
        )
    )
    overlay = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                EXPIRIES,
            ),
            max_size=30,
        )
    )
    return num_nodes, base_nodes, base, overlay


def build_kernel(num_nodes, base_nodes, base, overlay, reverse=False):
    """A vector-pinned kernel over ``base`` arrays plus ``overlay``."""
    base = sorted(base, key=lambda edge: edge[0])
    sources = np.asarray([u for u, _, _ in base], dtype=np.int64)
    indices = np.asarray([v for _, v, _ in base], dtype=np.int64)
    expiries = np.asarray([e for _, _, e in base], dtype=np.float64)
    indptr = np.zeros(base_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=base_nodes), out=indptr[1:])
    if reverse:
        indptr, indices, expiries = build_transpose(indptr, indices, expiries)
    log = ArrivalLog()
    log.extend(
        [u for u, _, _ in overlay],
        [v for _, v, _ in overlay],
        [e for _, _, e in overlay],
    )
    return TraversalKernel(
        indptr,
        indices,
        expiries,
        num_nodes=num_nodes,
        overlay=LogOverlay(log, reverse),
        scalar_limit=None,
        backend="python",
    )


def reference_reach(edges, seeds, eff, reverse=False):
    """Ids reachable from ``seeds`` over ``edges`` by a plain dict walk."""
    adjacency = {}
    for u, v, expiry in edges:
        if reverse:
            u, v = v, u
        if eff is None or expiry >= eff:
            adjacency.setdefault(u, []).append(v)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for successor in adjacency.get(stack.pop(), ()):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def duplicate_heavy_sets(num_nodes, max_sets):
    """Seed-set lists whose sets repeat ids drawn from a small pool."""
    pool = st.integers(0, min(num_nodes, 5) - 1) | st.integers(0, num_nodes - 1)
    return st.lists(
        st.lists(pool, min_size=0, max_size=12), min_size=1, max_size=max_sets
    )


@settings(max_examples=120, deadline=None)
@given(
    state=csr_with_overlay(),
    eff=st.one_of(st.none(), st.sampled_from([1.0, 2.0, 4.0, 6.0])),
    reverse=st.booleans(),
    data=st.data(),
)
def test_vector_and_bitplane_sweeps_match_the_dict_reference(
    state, eff, reverse, data
):
    num_nodes, base_nodes, base, overlay = state
    kernel = build_kernel(num_nodes, base_nodes, base, overlay, reverse)
    edges = base + overlay
    id_sets = data.draw(duplicate_heavy_sets(num_nodes, max_sets=70))
    expected = [reference_reach(edges, ids, eff, reverse) for ids in id_sets]

    for ids, reached in zip(id_sets, expected):
        assert kernel.reachable_ids(ids, eff) == reached
        assert kernel.reachable_count(ids, eff) == len(reached)
    assert kernel.spread_counts(id_sets, eff) == [len(r) for r in expected]
    weights = np.asarray(
        [1.0 + (i % 5) * 0.3 for i in range(num_nodes)], dtype=np.float64
    )
    assert kernel.weighted_spread_sums(id_sets, eff, weights) == [
        dense_weight_sum(weights, reached) for reached in expected
    ]


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(0, 9),
            st.integers(0, 9),
            st.one_of(st.none(), st.integers(1, 12)),
            st.booleans(),
        ),
        min_size=1,
        max_size=80,
    ),
    data=st.data(),
)
def test_delta_engine_cones_match_the_dict_reference(events, data):
    """Reverse sweeps through a live engine's transpose and overlay."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SCALAR_LIMIT_ENV, "0")
        graph = TDNGraph()
        graph.csr()  # live from the start: arrivals land in the overlay
        t = 0
        for u, v, lifetime, tick in events:
            if tick:
                t += 1
                graph.advance_to(t)
            if u != v:
                graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
        engine = graph.csr()
    assert engine.scalar_pair_limit == 0
    if not graph.num_interned:
        return
    seeds = data.draw(
        st.lists(st.integers(0, graph.num_interned - 1), min_size=1, max_size=12)
    )

    def closure(ids):
        nodes = [graph.node_of_id(i) for i in ids]
        return {graph.node_id(node) for node in ancestors(graph, nodes)}

    expected = closure(seeds)
    assert engine.ancestor_ids(seeds) == expected


@settings(max_examples=60, deadline=None)
@given(
    state=csr_with_overlay(),
    data=st.data(),
)
def test_vector_and_bitplane_paths_reject_the_same_seed(state, data):
    num_nodes, base_nodes, base, overlay = state
    kernel = build_kernel(num_nodes, base_nodes, base, overlay)
    good = st.integers(0, num_nodes - 1)
    bad = st.integers(-5, -1) | st.integers(num_nodes, num_nodes + 5)
    ids = data.draw(st.lists(good | bad, min_size=1, max_size=12))
    ids.append(data.draw(bad))
    ids = data.draw(st.permutations(ids + ids[: data.draw(st.integers(0, 3))]))
    low, high = min(ids), max(ids)
    expected = str(seed_range_error(low if low < 0 else high, num_nodes))
    for call in (
        lambda: kernel.reachable_ids(ids, None),
        lambda: kernel.reachable_count(ids, None),
        lambda: kernel.spread_counts([ids], None),
        lambda: kernel.weighted_spread_sums(
            [ids], None, np.ones(num_nodes, dtype=np.float64)
        ),
    ):
        with pytest.raises(IndexError) as excinfo:
            call()
        assert str(excinfo.value) == expected
