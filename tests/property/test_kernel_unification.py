"""Differential property suite for the unified traversal kernel.

Hypothesis drives random time-decayed streams through every traversal
call path — the live :class:`~repro.tdn.csr.DeltaCSR` engine (overlay +
tombstones), a fresh ``DeltaCSR`` built on the same graph (empty log,
base from :meth:`~repro.tdn.csr.CSRSnapshot.build`), and the sharded
executor's thread shards, which sweep kernel clones of the live engine
— and asserts identical spreads,
reachable/ancestor sets and *bit-identical* weighted sums, against each
other and against the reference dict BFS.  All of them are thin adapters
over one :class:`repro.kernels.TraversalKernel`, so this suite is the
tripwire that the adapters (overlay injection, horizon clamping,
transpose wiring, shard splitting) stay faithful — the kernel physics
itself can no longer drift between engines.

Also pinned here: every engine rejects an out-of-range seed id with the
*identical* ``IndexError`` message on every path (the kernel's unified
validation), and the scalar/vector cutover is exercised on both sides by
drawing the per-engine override.
"""

import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.influence.reachability import ancestors, reachable_set
from repro.kernels import (
    FOLD_NAMES,
    dense_weight_sum,
    native_available,
    resolve_fold,
    seed_range_error,
)
from repro.parallel.executor import ShardedOracleExecutor
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

#: Both kernel backends; the native leg self-skips where numba is absent,
#: so this file passes identically with or without the [native] extra.
BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(), reason="numba unavailable"
        ),
    ),
]


@contextlib.contextmanager
def thread_shards():
    """A two-thread executor that shards every request."""
    executor = ShardedOracleExecutor(2, min_batch=1)
    try:
        yield executor
    finally:
        executor.close()


def build_stream_graph(seed, num_nodes, num_events):
    """A random decayed stream with the delta engine live from step one."""
    rng = random.Random(seed)
    graph = TDNGraph()
    graph.csr()  # live engine: every mutation flows through the overlay
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.25:
            t += rng.randint(1, 4)
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < 0.1 else rng.randint(1, 25)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return graph


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=35, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 22),
    num_events=st.integers(5, 110),
    scalar_limit=st.sampled_from([0, 10**9, None]),
    horizon_offset=st.one_of(st.none(), st.integers(1, 30)),
    data=st.data(),
)
def test_all_engines_agree_on_every_sweep(
    backend, seed, num_nodes, num_events, scalar_limit, horizon_offset, data
):
    graph = build_stream_graph(seed, num_nodes, num_events)
    delta = graph.csr()
    if scalar_limit is not None or backend != "python":
        delta = DeltaCSR(
            graph, scalar_pair_limit=scalar_limit, backend=backend
        )
    fresh = DeltaCSR(graph, scalar_pair_limit=scalar_limit, backend=backend)
    ids = list(range(graph.num_interned))
    if not ids:
        return

    with thread_shards() as shards:
        t = graph.time
        horizon = None if horizon_offset is None else float(t + horizon_offset)

        seeds = data.draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=5, unique=True)
        )
        seed_nodes = [graph.node_of_id(i) for i in seeds]

        # Forward reachability: every engine == the dict reference.
        expected = {graph.node_id(n) for n in reachable_set(graph, seed_nodes, horizon)}
        assert delta.reachable_ids(seeds, horizon) == expected
        assert fresh.reachable_ids(seeds, horizon) == expected
        assert shards.reachable_ids_many(graph, [seeds], horizon) == [expected]
        assert delta.reachable_count(seeds, horizon) == len(expected)
        assert fresh.reachable_count(seeds, horizon) == len(expected)

        # Reverse (ancestor) sweeps: delta's overlay-aware transpose == its
        # sharded clones == the dict reference walk.
        expected_up = {graph.node_id(n) for n in ancestors(graph, seed_nodes, horizon)}
        assert delta.ancestor_ids(seeds, horizon) == expected_up
        assert shards.ancestor_ids(graph, seeds, horizon) == expected_up

        # Bit-plane spreads and weighted sums, batch shapes drawn freely.
        id_sets = data.draw(
            st.lists(
                st.lists(st.sampled_from(ids), min_size=0, max_size=4),
                min_size=1,
                max_size=10,
            )
        )
        per_set = [delta.reachable_count(s, horizon) if s else 0 for s in id_sets]
        assert delta.spread_counts(id_sets, horizon) == per_set
        assert shards.spread_counts(graph, id_sets, horizon) == per_set

        weights = np.asarray(
            [1.0 + (i % 7) * 0.5 for i in range(graph.num_interned)],
            dtype=np.float64,
        )
        expected_sums = [
            dense_weight_sum(weights, delta.reachable_ids(s, horizon)) if s else 0.0
            for s in id_sets
        ]
        assert delta.weighted_spread_sums(id_sets, horizon, weights) == expected_sums
        assert (
            shards.weighted_spread_sums(graph, id_sets, horizon, weights=weights)
            == expected_sums
        )

        # All four fold semantics, bit-identical across engines: count and
        # weighted_sum route through the mask sweep, hop_discount through the
        # level histogram (the third jitted fixpoint), time_decay through
        # derived node values — every backend path is covered.
        for name in sorted(FOLD_NAMES):
            fold = resolve_fold(name)
            fold_weights = weights if fold.needs_weights else None
            expected_fold = delta.fold_spread_sums(id_sets, horizon, fold, fold_weights)
            assert (
                fresh.fold_spread_sums(id_sets, horizon, fold, fold_weights)
                == expected_fold
            )
            if not fold.needs_weights:
                assert (
                    shards.fold_spread_sums(graph, id_sets, horizon, fold=fold)
                    == expected_fold
                )


@pytest.mark.parametrize("bad_seed", [-3, 10_000])
@pytest.mark.parametrize("force_scalar", [False, True])
def test_every_engine_rejects_bad_seeds_identically(
    bad_seed, force_scalar, monkeypatch
):
    """Satellite pin: one IndexError message across all engines and paths."""
    if force_scalar:
        monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", str(10**9))
    else:
        monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", "0")
    graph = build_stream_graph(7, 12, 60)
    delta = graph.csr()
    fresh = DeltaCSR(graph)
    # What each shard thread runs: a clone per direction, at the
    # executor's resolved horizon.
    forward, reverse = delta.kernel_clone(), delta.kernel_clone(reverse=True)

    def node_values(fold):
        if fold.derives_node_values:
            return delta.fold_node_values(fold, None)
        return None

    eff = float(graph.time + 1)
    weights = np.ones(graph.num_interned, dtype=np.float64)
    expected = str(seed_range_error(bad_seed, graph.num_interned))

    calls = [
        lambda: delta.reachable_ids([bad_seed]),
        lambda: delta.reachable_count([bad_seed]),
        lambda: delta.ancestor_ids([bad_seed]),
        lambda: delta.spread_counts([[0], [bad_seed]]),
        lambda: delta.weighted_spread_sums([[bad_seed]], None, weights),
        lambda: fresh.reachable_ids([bad_seed]),
        lambda: fresh.reachable_count([bad_seed]),
        lambda: forward.reachable_ids([bad_seed], eff),
        lambda: reverse.reachable_ids([bad_seed], eff),
        lambda: forward.spread_counts([[bad_seed]], eff),
        lambda: forward.weighted_spread_sums([[bad_seed]], eff, weights),
    ]
    # Multi-plane chunks: the batched seeding validates a whole chunk at
    # once, yet must name the id a set-by-set scan meets first — here
    # ``bad_seed`` in plane 1, although the chunk-wide minimum is -7.
    middle = [[0], [1], [bad_seed], [2]]
    two_bad = [[0], [1, bad_seed], [2], [3, -7]]
    for chunk in (middle, two_bad):
        calls += [
            lambda c=chunk: delta.spread_counts(c),
            lambda c=chunk: delta.weighted_spread_sums(c, None, weights),
            lambda c=chunk: forward.spread_counts(c, eff),
            lambda c=chunk: forward.weighted_spread_sums(c, eff, weights),
        ]
        for name in ("hop_discount", "time_decay"):
            fold = resolve_fold(name)
            calls += [
                lambda c=chunk, f=fold: delta.fold_spread_sums(c, None, f),
                lambda c=chunk, f=fold: f.batch(forward, c, eff, node_values(f)),
            ]
    for call in calls:
        with pytest.raises(IndexError) as excinfo:
            call()
        assert str(excinfo.value) == expected
