"""The delta-published plane: workers mirror the owner's engine exactly.

The owner publishes its :class:`~repro.tdn.csr.DeltaCSR` base once per
compaction and appends every arrival since to a shared-memory log; each
worker replays the log into the same base + overlay shape before a task.
These tests pin that contract bit-identical to the serial engine across
compactions, id-space growth past the base, pairs re-arriving with a
later expiry, log overflow, ancestor sweeps, weighted and derived folds,
and a worker respawned mid-generation.
"""

import random
import time
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
from repro.parallel.plane import PlaneEngine, shared_memory_available
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

FOLDS = (CountFold(), HopDiscountFold(alpha=0.55), TimeDecayFold(lam=0.08))

requires_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


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


def log_array(engine):
    return np.asarray(engine.arrival_log, dtype=np.float64).reshape(-1, 3)


# ----------------------------------------------------------------------
# In-process: PlaneEngine replaying the log == DeltaCSR, step by step
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
        mirror = mirrored = None
        for t in range(steps):
            grow_stream(graph, rng, t, width, pool)
            engine = graph.csr()
            if engine.base is not mirrored:
                mirrored = engine.base
                mirror = PlaneEngine(
                    mirrored.indptr, mirrored.indices, mirrored.expiries
                )
            mirror.catch_up(
                log_array(engine), len(engine.arrival_log), engine.num_nodes
            )
            horizon = None if horizon_offset is None else float(t + horizon_offset)
            eff = max(float(t + 1), horizon) if horizon is not None else float(t + 1)
            sets = query_sets(graph, rng)
            assert mirror.spread_counts(sets, eff) == engine.spread_counts(
                sets, horizon
            )
            for ids in sets[-3:]:
                assert mirror.reachable_ids(ids, eff) == engine.reachable_ids(
                    ids, horizon
                )
                assert mirror.ancestor_ids(ids, eff) == engine.ancestor_ids(
                    ids, horizon
                )
            weights = weights_for(graph)
            assert mirror.weighted_spread_sums(
                sets, eff, weights
            ) == engine.weighted_spread_sums(sets, horizon, weights)
            for fold in FOLDS + (WeightedSumFold(),):
                kwargs = {"weights": weights} if fold.needs_weights else {}
                assert mirror.fold_spread_sums(
                    sets, eff, fold, **kwargs
                ) == engine.fold_spread_sums(sets, horizon, fold, **kwargs)


def test_catch_up_applies_exactly_the_named_prefix():
    """Rows past the task's length are ignored even when present."""
    graph = TDNGraph()
    engine = graph.csr()
    for t, (u, v) in enumerate([("a", "b"), ("b", "c"), ("c", "d")]):
        graph.advance_to(t)
        graph.add_interaction(Interaction(u, v, t, 50))
    base = engine.base
    mirror = PlaneEngine(base.indptr, base.indices, base.expiries)
    mirror.catch_up(log_array(engine), 2, graph.num_interned)
    a, d = graph.node_id("a"), graph.node_id("d")
    assert mirror.applied == 2
    assert mirror.reachable_ids([a], 3.0) == {a, graph.node_id("b"), graph.node_id("c")}
    # A shorter (stale) length never rolls the overlay back.
    mirror.catch_up(log_array(engine), 1, graph.num_interned)
    assert mirror.applied == 2
    mirror.catch_up(log_array(engine), 3, graph.num_interned)
    assert d in mirror.reachable_ids([a], 3.0)


# ----------------------------------------------------------------------
# Real worker processes over the shared-memory plane
# ----------------------------------------------------------------------
def counter(name):
    return metrics_registry().counter_values().get(name, 0.0)


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
        graph, sets, horizon, weights=weights, weights_key="w"
    ) == engine.weighted_spread_sums(sets, horizon, weights)
    for fold in FOLDS:
        assert executor.fold_spread_sums(
            graph, sets, horizon, fold=fold
        ) == engine.fold_spread_sums(sets, horizon, fold)


@pytest.fixture
def executor():
    executor = ShardedOracleExecutor(2, min_batch=1, ancestor_min_batch=1)
    yield executor
    executor.close()


@requires_shm
def test_stream_across_compactions_is_bit_identical(executor, monkeypatch):
    """Several compactions, each one publish; the log carries the rest."""
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 24)
    rng = random.Random(7)
    graph = TDNGraph()
    engine = graph.csr()
    pool = [f"n{i}" for i in range(6)]
    fallbacks = counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL)
    bases = []
    appended = 0
    beyond_base = False
    for t in range(30):
        grow_stream(graph, rng, t, 5, pool)
        assert_sharded_matches_serial(executor, graph, rng)
        if not bases or bases[-1] is not engine.base:
            bases.append(engine.base)
        appended = max(appended, executor._plane.log_length)
        beyond_base |= graph.num_interned > engine.base.num_nodes
        # A new generation exactly when the engine compacted.
        assert executor._plane.base is engine.base
        assert executor.health_report()["plane_generation"] == len(bases)
    assert engine.compactions >= 4
    assert appended > 0  # tasks did run against populated logs
    assert beyond_base  # ... and against ids the base does not cover
    report = executor.health_report()
    assert report["state"] == "sharded" and not report["incidents"]
    assert counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL) == fallbacks


@requires_shm
def test_log_overflow_starts_a_new_generation(executor, monkeypatch):
    """A batch larger than the log's free space re-mirrors the same base
    into a fresh, larger generation instead of failing."""
    rng = random.Random(11)
    graph = TDNGraph()
    engine = graph.csr()
    pool = [f"n{i}" for i in range(10)]
    grow_stream(graph, rng, 0, 4, pool)
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 4)
    assert_sharded_matches_serial(executor, graph, rng)
    plane = executor._plane
    generation, capacity = plane.generation, plane._log.shape[0]
    # Keep the engine from compacting, then outgrow the log.
    monkeypatch.setattr(DeltaCSR, "COMPACT_MIN", 10_000)
    base = engine.base
    for t in range(1, 6):
        grow_stream(graph, rng, t, capacity, pool)
    assert len(engine.arrival_log) > capacity
    assert_sharded_matches_serial(executor, graph, rng)
    assert engine.base is base  # no compaction happened
    assert plane.generation == generation + 1
    assert plane.log_length == len(engine.arrival_log) <= plane._log.shape[0]
    assert executor.health_report()["state"] == "sharded"


@requires_shm
def test_respawned_worker_replays_the_log_from_the_start(executor, monkeypatch):
    """Workers killed mid-generation come back, replay the log from row
    0 and answer exactly — no republish needed."""
    rng = random.Random(29)
    graph = TDNGraph()
    graph.csr()
    pool = [f"n{i}" for i in range(8)]
    for t in range(3):
        grow_stream(graph, rng, t, 4, pool)
        assert_sharded_matches_serial(executor, graph, rng)
    plane = executor._plane
    generation = plane.generation
    assert plane.log_length > 0
    for proc in executor._procs:
        proc.terminate()
    for proc in executor._procs:
        proc.join(timeout=10)
    grow_stream(graph, rng, 3, 4, pool)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            assert_sharded_matches_serial(executor, graph, rng)
            if executor.pool_running and executor.parallel_available:
                break
            time.sleep(0.05)
    assert executor.health_report()["pool"]["restarts_used"] >= 1
    # The respawned pool serves a whole request from the log, exactly.
    dispatches = counter(metric_names.EXECUTOR_DISPATCHES_TOTAL)
    fallbacks = counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL)
    sets = query_sets(graph, rng)
    assert executor.spread_counts(graph, sets) == graph.csr().spread_counts(
        sets, None
    )
    assert counter(metric_names.EXECUTOR_DISPATCHES_TOTAL) == dispatches + 1
    assert counter(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL) == fallbacks
    assert plane.generation == generation
