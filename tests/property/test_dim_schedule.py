"""Property suite for the DIM index's own expiry schedule.

``DIMIndex`` learns of expiries from a schedule it keeps of the pairs it
saw arrive, keyed by expiry step, not from the graph.  Random streams
with parallel edges, infinite lifetimes and multi-step clock jumps are
replayed through a graph and an index, the index sometimes built on a
graph that already holds edges; after every ``on_batch`` the index's
probability view equals the one rebuilt from the graph's alive pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dim import DIMIndex
from repro.influence.probabilities import interactions_to_probability
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

#: One step: the clock gap before it and its ``(u, v, lifetime)`` rows.
STEPS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.one_of(st.none(), st.integers(1, 6)),
            ),
            max_size=5,
        ),
    ),
    max_size=25,
)


def replay(graph, gap, rows):
    """Advance ``graph`` by ``gap`` and add ``rows``; returns ``(t, batch)``."""
    t = graph.time + gap
    graph.advance_to(t)
    batch = [
        Interaction(f"n{u}", f"n{v}", t, lifetime)
        for u, v, lifetime in rows
        if u != v
    ]
    graph.add_batch(batch)
    return t, batch


def rebuilt_view(graph):
    view = {}
    for u, v, count in graph.alive_pairs_with_counts():
        view.setdefault(v, {})[u] = interactions_to_probability(count)
    return view


@settings(max_examples=100, deadline=None)
@given(before=STEPS, after=STEPS)
def test_probability_view_matches_the_graph(before, after):
    graph = TDNGraph()
    for gap, rows in before:
        replay(graph, gap, rows)
    dim = DIMIndex(2, graph, seed=1, beta=1.0, max_sketches=8)
    for gap, rows in after:
        t, batch = replay(graph, gap, rows)
        dim.on_batch(t, batch)
        assert dim._in_prob == rebuilt_view(graph)  # noqa: SLF001 - test probe
