"""Cross-backend equivalence: dict and CSR oracles are interchangeable.

The CSR engine is a performance substrate, not a new algorithm: for every
tracker, on every stream, it must produce the *identical* per-step
``Solution`` sequence and spend the *identical* number of oracle calls as
the reference dict-of-dict BFS.  This suite replays seeded synthetic
streams through SIEVEADN, BASICREDUCTION and HISTAPPROX under both
backends — across finite, infinite and mixed lifetime regimes, and a
check-in regime — and compares the full trajectories.

The check-in regime draws sources and targets from disjoint pools, as
in the paper's location-based streams, so almost every seed of a
reverse sweep (batch sources, dirty sources) has no alive in-edge and
closes to itself without a sweep; a few target -> source edges give
some sources an in-edge that later expires.

The small-graph scalar path and the vectorized frontier path of the CSR
engine are both exercised: the scalar cutover is dropped to zero for one
parametrization so the vector code runs even at these test scales.
"""

import random

import pytest

from repro import (
    BasicReduction,
    HistApprox,
    InfluenceOracle,
    Interaction,
    MemoryStream,
    SieveADN,
    TDNGraph,
)

# This suite deliberately probes an internal substrate (the shared call
# counter) to pin backend equivalence.
# repro-lint: disable-next=RPL105
from repro.utils.counters import CallCounter

MAX_LIFETIME = 6


def seeded_events(seed, regime, num_nodes=9, steps=18):
    """A seeded synthetic stream in one of four regimes."""
    rng = random.Random(seed)
    events = []
    for t in range(steps):
        for _ in range(rng.randint(1, 3)):
            if regime == "checkin":
                place = f"p{rng.randrange(4)}"
                user = f"u{rng.randrange(num_nodes - 4)}"
                if rng.random() < 0.15:
                    place, user = user, place  # a user -> place edge
                lifetime = rng.randint(1, MAX_LIFETIME)
                events.append(Interaction(place, user, t, lifetime))
                continue
            u, v = rng.sample(range(num_nodes), 2)
            if regime == "finite":
                lifetime = rng.randint(1, MAX_LIFETIME)
            elif regime == "infinite":
                lifetime = None
            else:  # mixed
                lifetime = None if rng.random() < 0.3 else rng.randint(1, MAX_LIFETIME)
            events.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return events


def make_tracker(name, graph, oracle):
    if name == "sieve_adn":
        return SieveADN(2, 0.2, graph, oracle)
    if name == "basic_reduction":
        return BasicReduction(2, 0.2, MAX_LIFETIME, graph, oracle)
    if name == "hist_approx":
        return HistApprox(2, 0.2, graph, oracle)
    raise AssertionError(name)


def replay(tracker_name, events, backend):
    """Fresh graph + oracle + tracker; returns (solutions, oracle calls)."""
    graph = TDNGraph()
    counter = CallCounter()
    oracle = InfluenceOracle(graph, counter, backend=backend)
    tracker = make_tracker(tracker_name, graph, oracle)
    solutions = []
    versions = 0
    for t, batch in MemoryStream(events, fill_gaps=True):
        graph.advance_to(t)
        graph.add_batch(batch)
        tracker.on_batch(t, batch)
        solutions.append(tracker.query())
        versions = graph.version
    if backend == "csr" and versions:
        # The delta-CSR path must have carried the replay: the engine was
        # exercised, and it absorbed the stream's many versions with far
        # fewer full base compactions than graph versions (no
        # rebuild-per-version behavior).
        engine = graph.csr()
        assert engine.compactions >= 1
        assert engine.compactions < max(2, versions // 4), (
            engine.compactions,
            versions,
        )
    return solutions, counter.total


REGIMES_BY_TRACKER = {
    # BasicReduction requires finite lifetimes <= L by contract.
    "sieve_adn": ("finite", "infinite", "mixed", "checkin"),
    "basic_reduction": ("finite", "checkin"),
    "hist_approx": ("finite", "infinite", "mixed", "checkin"),
}

CASES = [
    (tracker, regime)
    for tracker, regimes in REGIMES_BY_TRACKER.items()
    for regime in regimes
]


@pytest.mark.parametrize("tracker_name,regime", CASES)
@pytest.mark.parametrize("seed", [11, 29])
def test_identical_solutions_and_call_counts(tracker_name, regime, seed):
    events = seeded_events(seed, regime)
    dict_solutions, dict_calls = replay(tracker_name, events, "dict")
    csr_solutions, csr_calls = replay(tracker_name, events, "csr")
    assert csr_solutions == dict_solutions
    assert csr_calls == dict_calls
    assert dict_calls > 0  # the streams genuinely exercise the oracle


def test_vectorized_path_equivalence(monkeypatch):
    """Force the vector BFS (no scalar cutover) and re-check one of each,
    and each tracker in the check-in regime."""
    monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", "0")
    for tracker_name, regime in (
        ("sieve_adn", "mixed"),
        ("basic_reduction", "finite"),
        ("hist_approx", "mixed"),
        ("sieve_adn", "checkin"),
        ("basic_reduction", "checkin"),
        ("hist_approx", "checkin"),
    ):
        events = seeded_events(53, regime)
        dict_solutions, dict_calls = replay(tracker_name, events, "dict")
        csr_solutions, csr_calls = replay(tracker_name, events, "csr")
        assert csr_solutions == dict_solutions
        assert csr_calls == dict_calls
