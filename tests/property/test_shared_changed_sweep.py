"""Differential suite for the shared widest-path changed-node sweep.

BASICREDUCTION and HISTAPPROX derive every fed instance's changed-node set
from one reverse bottleneck sweep per batch
(:func:`repro.influence.changed.changed_node_labels`) instead of one
:func:`~repro.influence.changed.changed_nodes` sweep per instance.  On
random streams whose batches mix lifetimes (so BASICREDUCTION's expiry
prefixes differ per instance) this suite checks:

* every horizon's candidate list equals a per-instance ``changed_nodes``
  call on the edges that instance is fed — node for node and in order,
  on both backends and in both modes, through the arrival overlay and
  across compactions that leave stale base entries behind;
* HISTAPPROX and BASICREDUCTION replays match a per-instance-feed
  reference (the trackers as they were before the shared sweep) in
  solutions, values and oracle calls.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.influence.changed import (
    candidates_at,
    changed_node_labels,
    changed_nodes,
    latest_expiry_by_source,
)
from repro.influence.oracle import InfluenceOracle
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NUM_NODES = 9
MAX_LIFETIME = 8

edge = st.tuples(
    st.integers(0, NUM_NODES - 1),
    st.integers(0, NUM_NODES - 1),
    st.integers(1, MAX_LIFETIME),
)
#: One step: clock advance, then a batch of 1-4 edges.
step = st.tuples(st.integers(0, 2), st.lists(edge, min_size=1, max_size=4))
streams = st.lists(step, min_size=1, max_size=30)


def batches(stream, infinite_every=0):
    """``(t, batch)`` per step; every ``infinite_every``-th edge never expires."""
    t = 0
    count = 0
    for advance, edges in stream:
        t += advance
        batch = []
        for u, v, lifetime in edges:
            if u == v:
                continue
            count += 1
            if infinite_every and count % infinite_every == 0:
                lifetime = None
            batch.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
        yield t, batch


def fed_horizons(t, batch):
    """The horizons an instance may hold that some batch edge reaches."""
    expiries = {edge.expiry for edge in batch}
    finite = [e for e in expiries if e != math.inf]
    top = int(max(finite)) if finite else t + 1
    horizons = list(range(t + 1, top + 1))
    if math.inf in expiries:
        horizons.append(math.inf)
    return horizons


@settings(max_examples=60, deadline=None)
@given(stream=streams, compact_min=st.sampled_from([4, 512]))
def test_shared_candidates_match_per_instance_sweeps(stream, compact_min):
    with pytest.MonkeyPatch.context() as patch:
        # A small trigger compacts mid-stream: refreshed pairs then keep a
        # stale base entry next to their overlay entry.
        patch.setattr(DeltaCSR, "COMPACT_MIN", compact_min)
        graph = TDNGraph()
        graph.csr()  # live engine: arrivals land in the overlay
        for t, batch in batches(stream, infinite_every=5):
            graph.advance_to(t)
            graph.add_batch(batch)
            seeds = latest_expiry_by_source((e.source, e.expiry) for e in batch)
            for backend in ("csr", "dict"):
                for mode in ("ancestors", "sources"):
                    labelled = changed_node_labels(graph, seeds, mode, backend)
                    for horizon in fed_horizons(t, batch):
                        fed = [e for e in batch if e.expiry >= horizon]
                        assert candidates_at(labelled, horizon) == changed_nodes(
                            graph, fed, horizon, mode, backend
                        ), (backend, mode, horizon)


def test_labels_are_widest_path_bottlenecks():
    graph = TDNGraph()
    graph.csr()
    # a -> b (expiry 9) -> s, and a -> s directly (expiry 4); c -> a (6).
    graph.add_batch(
        [
            Interaction("a", "b", 0, 9),
            Interaction("b", "s", 0, 7),
            Interaction("a", "s", 0, 4),
            Interaction("c", "a", 0, 6),
        ]
    )
    for backend in ("csr", "dict"):
        labelled = dict(changed_node_labels(graph, {"s": 8.0}, backend=backend))
        assert labelled == {"s": 8.0, "b": 7, "a": 7, "c": 6}


class PerInstanceHistApprox(HistApprox):
    """HISTAPPROX feeding each instance its group through ``on_batch``.

    A group holds the rows with the same lifetime left at ``t``, so its
    horizon is their expiry.
    """

    def on_batch(self, t, batch):
        self._last_time = t
        self._expire(t)
        groups = {}
        for edge in batch:
            groups.setdefault(edge.expiry, []).append(edge)
        for horizon in sorted(groups):
            if horizon not in self._instances:
                self._create_instance(t, horizon)
            for existing in [h for h in self._horizons if h <= horizon]:
                self._instances[existing].on_batch(t, groups[horizon])
            self._reduce_redundancy()

    def _fill(self, t, instance, lo, hi):
        fill = [
            Interaction(u, v, t, int(expiry) - t)
            for u, v, expiry in self.graph.edges_with_expiry_in(lo, hi)
        ]
        if fill:
            instance.on_batch(t, fill)


class PerInstanceBasicReduction(BasicReduction):
    """BASICREDUCTION feeding each instance its expiry prefix."""

    def on_batch(self, t, batch):
        self._last_time = t
        self._ensure_instances(t)
        ordered = sorted(batch, key=lambda e: -e.expiry)
        prefix_end = 0
        for horizon, instance in reversed(self._instances):
            while prefix_end < len(ordered) and ordered[prefix_end].expiry >= horizon:
                prefix_end += 1
            if prefix_end:
                instance.on_batch(t, ordered[:prefix_end])


def replay(make, stream, backend, infinite_every=0):
    graph = TDNGraph()
    oracle = InfluenceOracle(graph, backend=backend)
    tracker = make(graph, oracle)
    trace = []
    for t, batch in batches(stream, infinite_every):
        graph.advance_to(t)
        graph.add_batch(batch)
        tracker.on_batch(t, batch)
        solution = tracker.query()
        trace.append((solution.nodes, solution.value))
    return trace, oracle.calls


@settings(max_examples=25, deadline=None)
@given(
    stream=streams,
    backend=st.sampled_from(["csr", "dict"]),
    mode=st.sampled_from(["ancestors", "sources"]),
    refine_head=st.booleans(),
)
def test_hist_approx_matches_per_instance_feed(stream, backend, mode, refine_head):
    def make(cls):
        return lambda graph, oracle: cls(
            2, 0.2, graph, oracle, changed_mode=mode, refine_head=refine_head
        )

    shared = replay(make(HistApprox), stream, backend, infinite_every=7)
    reference = replay(make(PerInstanceHistApprox), stream, backend, infinite_every=7)
    assert shared == reference


@settings(max_examples=25, deadline=None)
@given(
    stream=streams,
    backend=st.sampled_from(["csr", "dict"]),
    mode=st.sampled_from(["ancestors", "sources"]),
)
def test_basic_reduction_matches_per_instance_feed(stream, backend, mode):
    def make(cls):
        return lambda graph, oracle: cls(
            2, 0.2, MAX_LIFETIME, graph, oracle, changed_mode=mode
        )

    shared = replay(make(BasicReduction), stream, backend)
    reference = replay(make(PerInstanceBasicReduction), stream, backend)
    assert shared == reference
