"""Sharded-vs-serial equivalence: the tentpole acceptance bar.

For every tracker in the paper (SIEVEADN, BASICREDUCTION, HISTAPPROX) a
seeded stream is replayed twice — once on a serial oracle, once with the
sharded executor (``REPRO_TEST_WORKERS`` threads, default 2; the tier-1
CI matrix runs this suite with ``workers=2``) — and every per-step
solution, spread value and cumulative oracle-call count must be
*bit-identical*.  ``min_batch=1`` forces even tiny batches through the
shard threads, so the parallel path is exercised on every sweep, not
just the large ones.

One executor is shared across the whole module via a fixture, which also
pins its per-graph, per-version clone tracking across many graphs.
"""

import os
import random

import numpy as np
import pytest

from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.influence.oracle import InfluenceOracle
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel.executor import ShardedOracleExecutor
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import GeometricLifetime

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


@pytest.fixture(scope="module")
def executor():
    pool = ShardedOracleExecutor(WORKERS, min_batch=1)
    yield pool
    pool.close()


def stream_batches(seed=7, num_nodes=36, num_steps=30, per_step=4, max_l=25):
    rng = random.Random(seed)
    policy = GeometricLifetime(0.08, max_l, seed=seed + 1)
    batches = []
    for t in range(num_steps):
        batch = []
        for _ in range(rng.randint(1, per_step)):
            u, v = rng.sample(range(num_nodes), 2)
            batch.append(policy.assign(Interaction(f"n{u}", f"n{v}", t)))
        batches.append((t, batch))
    return batches


def make_algorithm(name, graph, oracle):
    if name == "sieve-adn":
        return SieveADN(4, 0.25, graph, oracle)
    if name == "basic-reduction":
        return BasicReduction(3, 0.3, 25, graph, oracle)
    if name == "hist-approx":
        return HistApprox(3, 0.3, graph, oracle)
    raise ValueError(name)


def replay(name, batches, oracle_factory, from_scratch=False):
    """Per-step trace; ``from_scratch`` invalidates the memo per batch."""
    graph = TDNGraph()
    oracle = oracle_factory(graph)
    algorithm = make_algorithm(name, graph, oracle)
    trace = []
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
        if from_scratch:
            oracle.invalidate()
        algorithm.on_batch(t, batch)
        solution = algorithm.query()
        trace.append((tuple(solution.nodes), solution.value, oracle.calls))
    return trace


@pytest.mark.parametrize("name", ["sieve-adn", "basic-reduction", "hist-approx"])
def test_tracker_bit_identical_under_sharding(name, executor):
    batches = stream_batches()
    serial_trace = replay(name, batches, lambda g: InfluenceOracle(g))
    sharded_trace = replay(
        name, batches, lambda g: InfluenceOracle(g, parallel=executor)
    )
    assert sharded_trace == serial_trace


@pytest.mark.parametrize("name", ["sieve-adn", "basic-reduction", "hist-approx"])
def test_tracker_bit_identical_under_version_memo(name, executor):
    """A memo invalidated before every batch shards identically too."""
    batches = stream_batches(seed=19)
    serial_trace = replay(
        name, batches, lambda g: InfluenceOracle(g), from_scratch=True
    )
    sharded_trace = replay(
        name,
        batches,
        lambda g: InfluenceOracle(g, parallel=executor),
        from_scratch=True,
    )
    assert sharded_trace == serial_trace


WEIGHT_SPECS = {
    # Dense mapping -> the weighted bit-plane path: shard threads fold the
    # oracle's dense weight array and return 64-wide weight sums.
    "mapping": lambda: {f"n{i}": float(1 + (i % 5)) for i in range(36)},
    # No mapping -> uniform weights ride the counted bit-plane sweep.
    "uniform": lambda: None,
    # A callable stays on the caller's thread: shards return reachable id sets.
    "callable": lambda: (lambda node: float(1 + (int(str(node)[1:]) % 4))),
}


def weighted_oracle(graph, weights, **kwargs):
    return InfluenceOracle(graph, semantics="weighted_sum", weights=weights, **kwargs)


@pytest.mark.parametrize("spec", sorted(WEIGHT_SPECS))
def test_weighted_oracle_bit_identical_under_sharding(spec, executor):
    batches = stream_batches(seed=41)

    def run(oracle_factory):
        graph = TDNGraph()
        oracle = oracle_factory(graph)
        sieve = SieveADN(3, 0.3, graph, oracle)
        trace = []
        for t, batch in batches:
            graph.advance_to(t)
            for interaction in batch:
                graph.add_interaction(interaction)
            sieve.on_batch(t, batch)
            solution = sieve.query()
            trace.append((tuple(solution.nodes), solution.value, oracle.calls))
        return trace

    weights = WEIGHT_SPECS[spec]()
    serial_trace = run(lambda g: weighted_oracle(g, weights))
    sharded_trace = run(lambda g: weighted_oracle(g, weights, parallel=executor))
    assert sharded_trace == serial_trace
    # The parity must come from the pool actually answering, not from a
    # silent serial fallback.
    assert executor.degraded is None


@pytest.mark.parametrize("spec", sorted(WEIGHT_SPECS))
def test_weighted_spread_many_matches_spread_loop(spec, executor):
    """Batched protocol == loop of spread: values, memo and call counts.

    The candidate list deliberately exceeds one 64-set bit-plane chunk,
    so the sharded weighted path crosses plane boundaries and shard
    splits while staying bit-identical to the sequential loop.
    """
    batches = stream_batches(seed=53)
    graph = TDNGraph()
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
    nodes = sorted(graph.node_set(), key=repr)
    sets = [(n,) for n in nodes] + [tuple(nodes[:3])] + [(nodes[0],)]  # dup hits
    sets = sets + [(a, b) for a in nodes[:9] for b in nodes[9:18]]  # > 64 sets
    assert len(sets) > 64

    def make(**kwargs):
        return weighted_oracle(graph, WEIGHT_SPECS[spec](), **kwargs)

    loop = make()
    loop_values = [loop.spread(s) for s in sets]

    for oracle in (make(), make(parallel=executor)):
        values = oracle.spread_many(sets)
        assert values == loop_values
        assert oracle.calls == loop.calls
    assert executor.degraded is None


def test_sharded_weighted_sums_are_worker_computed(executor):
    """The executor's weighted path returns the serial engine's exact
    floats from its shard threads, not from a serial fallback."""
    batches = stream_batches(seed=67)
    graph = TDNGraph()
    for t, batch in batches:
        graph.advance_to(t)
        for interaction in batch:
            graph.add_interaction(interaction)
    ids = list(range(graph.num_interned))
    weights = np.asarray([1.0 + (i % 6) * 0.25 for i in ids], dtype=np.float64)
    id_sets = [[i] for i in ids] + [ids[:4], []]
    serial_sums = graph.csr().weighted_spread_sums(id_sets, None, weights)
    before = metrics_registry().counter_values()
    sharded_sums = executor.weighted_spread_sums(
        graph, id_sets, None, weights=weights
    )
    after = metrics_registry().counter_values()
    assert sharded_sums == serial_sums
    assert executor.degraded is None and executor.pool_running
    dispatches = metric_names.EXECUTOR_DISPATCHES_TOTAL
    fallbacks = metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL
    assert after[dispatches] == before[dispatches] + 1
    assert after[fallbacks] == before[fallbacks]


def test_sieve_adn_closes_cones_on_the_callers_thread(monkeypatch):
    """A workers=2 SieveADN replay on gowalla in batches of 50 derives
    V_t-bar with one csr ``changed_nodes`` call per batch and closes the
    memo's dirty cone with the engine's own sweep: the executor's reverse
    entry points are never called, and the replay matches the serial
    tracker's solutions and oracle calls while the pool shards."""
    from repro.core import sieve_adn
    from repro.core.tracker import InfluenceTracker
    from repro.datasets.registry import make_interactions

    interactions = make_interactions("gowalla", 40 * 50, seed=5)
    policy = GeometricLifetime(0.01, 1000, seed=6)
    flat = [(i.source, i.target, policy.draw(i)) for i in interactions]
    batches = [flat[start : start + 50] for start in range(0, len(flat), 50)]

    def run(workers):
        tracker = InfluenceTracker("sieve-adn", k=10, epsilon=0.2, workers=workers)
        try:
            trace = []
            for t, batch in enumerate(batches):
                solution = tracker.step(t, batch)
                trace.append((solution.nodes, solution.value))
            return trace, tracker.oracle.calls
        finally:
            tracker.close()

    serial = run(1)

    sweeps = []
    real_changed_nodes = sieve_adn.changed_nodes

    def counted(*args, **kwargs):
        sweeps.append(kwargs["backend"])
        return real_changed_nodes(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("reverse sweeps stay on the caller's thread")

    real_ensure_plane = ShardedOracleExecutor.ensure_plane

    def forward_only(self, graph, reverse=False):
        assert not reverse, "reverse sweeps stay on the caller's thread"
        return real_ensure_plane(self, graph, reverse)

    monkeypatch.setattr(sieve_adn, "changed_nodes", counted)
    monkeypatch.setattr(ShardedOracleExecutor, "ancestor_ids", forbidden)
    monkeypatch.setattr(ShardedOracleExecutor, "touched_cone_ids", forbidden)
    monkeypatch.setattr(ShardedOracleExecutor, "ensure_plane", forward_only)
    dispatches = metric_names.EXECUTOR_DISPATCHES_TOTAL
    before = metrics_registry().counter_values()[dispatches]
    assert run(2) == serial
    assert sweeps == ["csr"] * len(batches)
    assert metrics_registry().counter_values()[dispatches] > before
