"""Kernel clones over the delta engine: base plus the arrival log.

Between compactions the graph's :class:`~repro.tdn.csr.DeltaCSR` is one
compacted base plus every arrival since, kept in
:attr:`~repro.tdn.csr.DeltaCSR.arrival_log`, which both sweep directions
read.  The executor's shard threads sweep kernel clones that share that
base and log.  These tests pin the clones bit-identical to the serial
engine across compactions, id-space growth past the base, pairs
re-arriving with a later expiry, ancestor sweeps, weighted and derived
folds, and clones re-cut after a failed shard.
"""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.folds import (
    CountFold,
    HopDiscountFold,
    TimeDecayFold,
    WeightedSumFold,
)
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.faults import FaultPlan
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

FOLDS = (CountFold(), HopDiscountFold(alpha=0.55), TimeDecayFold(lam=0.08))


def grow_stream(graph, rng, t, width, pool):
    """One step: new nodes join the pool and some pairs re-arrive later.

    Returns the step's interactions already added to ``graph``.
    """
    graph.advance_to(t)
    pool.extend(f"n{len(pool)}" for _ in range(rng.randint(0, 2)))
    added = []
    for _ in range(width):
        if added and rng.random() < 0.3:
            u, v = added[rng.randrange(len(added))]  # re-arrival, later expiry
            lifetime = rng.randint(20, 60)
        else:
            u, v = rng.sample(pool, 2)
            lifetime = None if rng.random() < 0.1 else rng.randint(1, 30)
        graph.add_interaction(Interaction(u, v, t, lifetime))
        added.append((u, v))
    return added


def query_sets(graph, rng):
    ids = list(range(graph.num_interned))
    sets = [[i] for i in ids]
    sets += [rng.sample(ids, min(3, len(ids))) for _ in range(6)]
    return sets


def weights_for(graph):
    return np.asarray(
        [1.0 + (i % 5) * 0.25 for i in range(graph.num_interned)], dtype=np.float64
    )


# ----------------------------------------------------------------------
# In-process: fresh clones of base + log == DeltaCSR, step by step
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(3, 25),
    width=st.integers(1, 8),
    horizon_offset=st.one_of(st.none(), st.integers(1, 20)),
)
def test_replayed_log_matches_delta_engine_at_every_step(
    seed, steps, width, horizon_offset
):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeltaCSR, "COMPACT_MIN", 12)  # compact often
        graph = TDNGraph()
        engine = graph.csr()
        pool = [f"n{i}" for i in range(4)]
        for t in range(steps):
            grow_stream(graph, rng, t, width, pool)
            engine = graph.csr()
            forward = engine.kernel_clone()
            reverse = engine.kernel_clone(reverse=True)
            assert forward.indptr is engine.base.indptr
            horizon = None if horizon_offset is None else float(t + horizon_offset)
            eff = max(float(t + 1), horizon) if horizon is not None else float(t + 1)
            sets = query_sets(graph, rng)
            assert forward.spread_counts(sets, eff) == engine.spread_counts(
                sets, horizon
            )
            for ids in sets[-3:]:
                assert forward.reachable_ids(ids, eff) == engine.reachable_ids(
                    ids, horizon
                )
                assert reverse.reachable_ids(ids, eff) == engine.ancestor_ids(
                    ids, horizon
                )
            weights = weights_for(graph)
            assert forward.weighted_spread_sums(
                sets, eff, weights
            ) == engine.weighted_spread_sums(sets, horizon, weights)
            for fold in FOLDS + (WeightedSumFold(),):
                if fold.needs_weights:
                    values = weights
                elif fold.derives_node_values:
                    values = engine.fold_node_values(fold, horizon)
                else:
                    values = None
                kwargs = {"weights": weights} if fold.needs_weights else {}
                assert fold.batch(forward, sets, eff, values) == (
                    engine.fold_spread_sums(sets, horizon, fold, **kwargs)
                )


def counter(name):
    return metrics_registry().counter_values().get(name, 0.0)


@pytest.fixture
def executor():
    executor = ShardedOracleExecutor(2, min_batch=1)
    yield executor
    executor.close()


def test_catch_up_applies_exactly_the_named_prefix(executor):
    """Every request answers for exactly the arrivals logged before it."""
    graph = TDNGraph()
    engine = graph.csr()
    for t, (u, v) in enumerate([("a", "b"), ("b", "c")]):
        graph.advance_to(t)
        graph.add_interaction(Interaction(u, v, t, 50))
    a = graph.node_id("a")
    assert len(engine.arrival_log) == 2
    reached = executor.reachable_ids_many(graph, [[a], [a]], 3.0)
    assert reached == [{a, graph.node_id("b"), graph.node_id("c")}] * 2
    generation = executor.health_report()["plane_generation"]
    graph.advance_to(2)
    graph.add_interaction(Interaction("c", "d", 2, 50))
    assert len(engine.arrival_log) == 3
    d = graph.node_id("d")  # an id past the clones cut before it arrived
    reached = executor.reachable_ids_many(graph, [[a], [d]], 3.0)
    assert reached == [graph.csr().reachable_ids([a], 3.0), {d}]
    assert d in reached[0]
    assert executor.health_report()["plane_generation"] == generation + 1


# ----------------------------------------------------------------------
# Shard threads over a live stream
# ----------------------------------------------------------------------
def assert_sharded_matches_serial(executor, graph, rng):
    """Every executor surface against the serial engine, bit for bit."""
    engine = graph.csr()
    sets = query_sets(graph, rng)
    horizon = float(graph.time + 6)
    assert executor.spread_counts(graph, sets, horizon) == engine.spread_counts(
        sets, horizon
    )
    assert executor.spread_counts(graph, sets) == engine.spread_counts(sets, None)
    assert executor.reachable_ids_many(graph, sets[-4:], horizon) == [
        engine.reachable_ids(ids, horizon) for ids in sets[-4:]
    ]
    targets = list(range(0, graph.num_interned, 2))
    assert executor.ancestor_ids(graph, targets) == engine.ancestor_ids(
        targets, None
    )
    weights = weights_for(graph)
    assert executor.weighted_spread_sums(
        graph, sets, horizon, weights=weights
    ) == engine.weighted_spread_sums(sets, horizon, weights)
    for fold in FOLDS:
        assert executor.fold_spread_sums(
            graph, sets, horizon, fold=fold
        ) == engine.fold_spread_sums(sets, horizon, fold)


def test_stream_across_compactions_is_bit_identical(executor, monkeypatch):
    """Several compactions; between them the clones carry the log."""
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 24)
    rng = random.Random(7)
    graph = TDNGraph()
    engine = graph.csr()
    pool = [f"n{i}" for i in range(6)]
    fallbacks = counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL)
    logged = 0
    beyond_base = False
    for t in range(30):
        grow_stream(graph, rng, t, 5, pool)
        assert_sharded_matches_serial(executor, graph, rng)
        logged = max(logged, len(engine.arrival_log))
        beyond_base |= graph.num_interned > engine.base.num_nodes
        # The clones sweep the engine's current base, never a copy.
        for clone in executor.ensure_plane(graph):
            assert clone.indptr is engine.base.indptr
    assert engine.compactions >= 4
    assert logged > 0  # sweeps did run against populated logs
    assert beyond_base  # ... and against ids the base does not cover
    report = executor.health_report()
    assert report["state"] == "sharded" and not report["incidents"]
    assert counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL) == fallbacks


def test_log_overflow_starts_a_new_generation(executor, monkeypatch):
    """A log grown past the compaction trigger folds into a new base; the
    next request cuts clones over that base, with an empty log."""
    rng = random.Random(11)
    graph = TDNGraph()
    engine = graph.csr()
    pool = [f"n{i}" for i in range(10)]
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 10_000)  # hold the log
    grow_stream(graph, rng, 0, 4, pool)
    assert_sharded_matches_serial(executor, graph, rng)
    base = engine.base
    old = executor.ensure_plane(graph)
    for t in range(1, 6):
        grow_stream(graph, rng, t, 8, pool)
    assert_sharded_matches_serial(executor, graph, rng)
    assert engine.base is base and len(engine.arrival_log) > 8
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 8)
    generation = executor.health_report()["plane_generation"]
    grow_stream(graph, rng, 6, 8, pool)
    assert_sharded_matches_serial(executor, graph, rng)
    assert engine.base is not base and len(engine.arrival_log) == 0
    assert executor.health_report()["plane_generation"] > generation
    for clone in executor.ensure_plane(graph):
        assert clone.indptr is engine.base.indptr
    assert all(clone.indptr is base.indptr for clone in old)
    assert executor.health_report()["state"] == "sharded"


def test_respawned_worker_replays_the_log_from_the_start(executor, monkeypatch):
    """A failed shard drops the clones; the next request re-cuts them at
    the same graph version, with the whole log, and answers exactly."""
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 10_000)
    rng = random.Random(29)
    graph = TDNGraph()
    engine = graph.csr()
    pool = [f"n{i}" for i in range(8)]
    for t in range(3):
        grow_stream(graph, rng, t, 4, pool)
        assert_sharded_matches_serial(executor, graph, rng)
    assert len(engine.arrival_log) > 0
    # Fail the first shard of the next request.
    monkeypatch.setattr(executor, "_fault_plan", FaultPlan.parse("shard=1"))
    sets = query_sets(graph, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert executor.spread_counts(graph, sets) == engine.spread_counts(
            sets, None
        )
    assert executor.health_report()["incidents"] == {"THREAD_ERROR": 1}
    version = graph.version
    generation = executor.health_report()["plane_generation"]
    dispatches = counter(metric_names.EXECUTOR_DISPATCHES_TOTAL)
    fallbacks = counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL)
    assert executor.spread_counts(graph, sets) == engine.spread_counts(sets, None)
    assert graph.version == version
    assert executor.health_report()["plane_generation"] == generation + 1
    assert counter(metric_names.EXECUTOR_DISPATCHES_TOTAL) == dispatches + 1
    assert counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL) == fallbacks
    assert_sharded_matches_serial(executor, graph, rng)
    assert executor.health_report()["state"] == "sharded"
