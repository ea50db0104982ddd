"""Differential suite for the reverse sweeps' seed split.

A node with no alive in-pair has no ancestor at any live horizon, so the
delta-CSR engine's reverse entry points (``ancestor_ids``, also at the
widest live horizon as the memo's dirty cone, and
``ancestor_bottlenecks``) start their kernel sweep only at seeds that
have one, and add the others back as themselves.  On random streams
whose seeds mix both kinds, on the scalar and the vectorized path, this
suite checks that:

* every entry point equals the dict references ``ancestors`` and
  ``ancestor_bottlenecks``;
* a call runs a kernel sweep exactly when one of its seeds has an alive
  in-pair (so a seed whose last in-pair expired this step runs none);
* out-of-range seed ids still raise the kernel's ``IndexError`` for the
  same id.

Fixture edges present from the first step: ``root -> mid -> n0`` never
expire, so ``root`` (no in-pair) is an ancestor of the seeds ``mid`` and
``n0``; ``src -> sink`` expires at time 1, so ``sink`` loses its last
in-pair on the first clock advance while its out-pair ``sink -> n1``
keeps it alive.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.reachability import ancestor_bottlenecks, ancestors
from repro.kernels import TraversalKernel
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NUM_NODES = 8
MAX_LIFETIME = 6

edge = st.tuples(
    st.integers(0, NUM_NODES - 1),
    st.integers(0, NUM_NODES - 1),
    st.one_of(st.none(), st.integers(1, MAX_LIFETIME)),
)
#: One step: clock advance, then a batch of 0-3 edges.
step = st.tuples(st.integers(0, 2), st.lists(edge, max_size=3))
streams = st.lists(step, min_size=1, max_size=12)

FIXTURES = [
    ("root", "mid", None),
    ("mid", "n0", None),
    ("src", "sink", 1),
    ("sink", "n1", None),
]

SWEEPS = ("reachable_ids", "bottleneck_scalar")


class SweepCounter:
    """Counts reverse-kernel entry calls by wrapping the kernel class."""

    def __init__(self, patch):
        self.calls = 0
        for name in SWEEPS:
            method = getattr(TraversalKernel, name)
            patch.setattr(TraversalKernel, name, self._counted(method))

    def _counted(self, method):
        def wrapper(kernel, *args, **kwargs):
            self.calls += 1
            return method(kernel, *args, **kwargs)

        return wrapper

    def take(self):
        calls, self.calls = self.calls, 0
        return calls


def replay(stream):
    """Yield ``(graph, t)`` after each step's advance and batch."""
    graph = TDNGraph()
    graph.csr()  # live engine: arrivals land in the log
    graph.add_batch(Interaction(u, v, 0, life) for u, v, life in FIXTURES)
    t = 0
    for advance, edges in stream:
        t += advance
        graph.advance_to(t)
        graph.add_batch(
            Interaction(f"n{u}", f"n{v}", t, life) for u, v, life in edges if u != v
        )
        yield graph, t


def edged(graph, ids):
    """Whether any id's node has an alive in-pair, read off the dict side."""
    return any(graph.in_degree(graph.node_of_id(i)) for i in ids)


def closure_ref(graph, ids, horizon):
    nodes = [graph.node_of_id(i) for i in ids]
    return {graph.node_id(n) for n in ancestors(graph, nodes, horizon)}


@pytest.mark.parametrize("scalar_limit", [None, "0"], ids=["scalar", "vector"])
@settings(max_examples=50, deadline=None)
@given(stream=streams, data=st.data())
def test_reverse_entry_points_match_dict_references(scalar_limit, stream, data):
    with pytest.MonkeyPatch.context() as patch:
        if scalar_limit is not None:
            patch.setenv("REPRO_SCALAR_PAIR_LIMIT", scalar_limit)
        # A small trigger compacts mid-stream, dropping the reverse kernel.
        patch.setattr(DeltaCSR, "COMPACT_MIN", 6)
        sweeps = SweepCounter(patch)
        for graph, t in replay(stream):
            engine = graph.csr()
            node_id = graph.node_id
            ids = st.integers(0, graph.num_interned - 1)
            fixed = [
                [node_id("sink"), node_id("root")],
                [node_id("root"), node_id("mid")],
                [node_id("n0"), node_id("root")],
            ]
            plane = st.one_of(st.lists(ids, max_size=4), st.sampled_from(fixed))
            planes = data.draw(st.lists(plane, min_size=1, max_size=3))
            horizon = data.draw(
                st.one_of(
                    st.none(),
                    st.just(math.inf),
                    st.integers(t + 1, t + MAX_LIFETIME + 1).map(float),
                )
            )
            for seeds in planes + fixed:
                want = closure_ref(graph, seeds, horizon)
                sweeps.take()
                assert engine.ancestor_ids(seeds, horizon) == want, (seeds, horizon)
                assert (sweeps.take() > 0) == edged(graph, seeds)
                labels = {
                    i: data.draw(
                        st.one_of(
                            st.just(math.inf),
                            st.integers(t + 1, t + MAX_LIFETIME).map(float),
                        )
                    )
                    for i in seeds
                }
                reference = ancestor_bottlenecks(
                    graph, {graph.node_of_id(i): x for i, x in labels.items()}
                )
                sweeps.take()
                got = engine.ancestor_bottlenecks(labels)
                assert got == {node_id(n): x for n, x in reference.items()}, labels
                assert (sweeps.take() > 0) == edged(graph, labels)


@pytest.mark.parametrize("scalar_limit", [None, 0], ids=["scalar", "vector"])
@pytest.mark.parametrize("bad", [-1, -2, 3, 7])
def test_out_of_range_seed_names_the_same_id(scalar_limit, bad):
    # The last interned node ("c", id 2) has no in-pair: a split that
    # tested id -1 against the graph would read it and sweep nothing.
    graph = TDNGraph()
    graph.add_batch([Interaction("a", "b", 0, 5), Interaction("c", "a", 0, 5)])
    engine = DeltaCSR(graph, scalar_pair_limit=scalar_limit)
    lone = graph.node_id("c")
    message = rf"^seed id {bad} out of range \[0, 3\)$"
    calls = [
        lambda: engine.ancestor_ids([lone, bad]),
        lambda: engine.ancestor_ids([lone, bad], 4.0),
        lambda: engine.ancestor_ids([bad]),
        lambda: engine.ancestor_bottlenecks({lone: 3.0, bad: 4.0}),
    ]
    for call in calls:
        with pytest.raises(IndexError, match=message):
            call()
