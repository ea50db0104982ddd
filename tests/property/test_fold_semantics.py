"""Differential property suite for the pluggable fold semantics.

Hypothesis drives random time-decayed streams through every registered
fold (``count``, ``weighted_sum``, ``hop_discount``, ``time_decay``) on
every engine — the live :class:`~repro.tdn.csr.DeltaCSR` overlay, a
fresh ``DeltaCSR`` built on the same graph (empty log, from-scratch
base), and the sharded executor's thread shards —
and pins each against an *independent* dict-BFS reference that never
touches the bit-plane machinery: a plain level-by-level walk over
``graph.out_neighbors`` folded per :meth:`~repro.kernels.folds.Fold.
reference`.

Exactness contract: ``count`` is asserted bit-identical everywhere (the
fold routes through the pre-refactor popcount path); ``hop_discount``
and ``weighted_sum`` are bit-identical too because reference and kernel
share one canonical accumulation order (:func:`~repro.kernels.folds.
hop_discount_sum`, :func:`~repro.kernels.dense_weight_sum`).
``time_decay``'s reference computes its per-node terms in pure Python
``math.exp``, so it pins the engines to within float-ulp tolerance —
while the engines themselves (live vs fresh vs sharded)
must still agree *bit for bit*, which is the production guarantee.

Also pinned here: per-semantics memo isolation (two parameterizations
of one fold on one graph never share cache entries), persistence
round-trips of the oracle's semantics through JSON, and the unknown-
name rejection path.
"""

import json
import math
import os
import random
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SemanticsError
from repro.influence.oracle import InfluenceOracle
from repro.kernels.folds import (
    FOLD_NAMES,
    CountFold,
    HopDiscountFold,
    TimeDecayFold,
    WeightedSumFold,
    resolve_fold,
)
from repro.kernels.traversal import TraversalKernel, build_transpose
from repro.parallel.executor import ShardedOracleExecutor
from repro.persistence import oracle_from_dict, oracle_to_dict
from repro.tdn.csr import SCALAR_LIMIT_ENV, DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def build_stream_graph(seed, num_nodes, num_events, sync_every=None):
    """A random decayed stream with the delta engine live from step one.

    ``sync_every`` syncs the engine every that many events, so it can
    compact mid-stream (and then holds both base and overlay entries).
    """
    rng = random.Random(seed)
    graph = TDNGraph()
    graph.csr()  # live engine: every mutation flows through the overlay
    t = 0
    for event in range(num_events):
        if sync_every and event % sync_every == 0:
            graph.csr()
        if rng.random() < 0.25:
            t += rng.randint(1, 4)
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < 0.1 else rng.randint(1, 25)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return graph


# ----------------------------------------------------------------------
# Independent dict references (no kernels, no numpy sweeps)
# ----------------------------------------------------------------------
def bfs_levels(graph, seed_nodes, min_expiry, reverse=False):
    """``node -> hop level`` by a plain dict BFS (seeds are level 0).

    ``reverse`` walks in-edges instead: levels of the ancestor sweep.
    """
    neighbors = graph.in_neighbors if reverse else graph.out_neighbors
    levels = {}
    queue = deque()
    for node in seed_nodes:
        if node not in levels:
            levels[node] = 0
            queue.append(node)
    while queue:
        node = queue.popleft()
        for nxt in neighbors(node, min_expiry):
            if nxt not in levels:
                levels[nxt] = levels[node] + 1
                queue.append(nxt)
    return levels


def reference_decay_terms(graph, lam, eff):
    """Pure-Python ``term(v)`` map for ``time_decay`` at horizon ``eff``.

    Max alive in-pair expiry per node via the graph dicts and
    ``math.exp`` — independent of ``max_in_expiries`` and numpy.
    """
    terms = {}
    for node in graph.node_set():
        best = None
        for u in graph.in_neighbors(node, eff):
            expiry = graph.max_expiry(u, node)
            if expiry >= eff and (best is None or expiry > best):
                best = expiry
        if best is None:
            terms[node] = 1.0
        elif math.isinf(best):
            terms[node] = 1.0
        else:
            terms[node] = 1.0 - math.exp(-lam * (best - eff))
    return terms


def reference_score(graph, fold, seed_nodes, eff, weights_by_node, reverse=False):
    """Fold a dict-BFS result per the fold's own scalar ``reference``."""
    levels = {
        graph.node_id(n): lvl
        for n, lvl in bfs_levels(graph, seed_nodes, eff, reverse).items()
    }
    if isinstance(fold, WeightedSumFold):
        values = np.zeros(graph.num_interned, dtype=np.float64)
        for node, weight in weights_by_node.items():
            values[graph.node_id(node)] = weight
        return fold.reference(levels, values)
    if isinstance(fold, TimeDecayFold):
        terms = reference_decay_terms(graph, fold.lam, eff)
        values = np.ones(graph.num_interned, dtype=np.float64)
        for node, term in terms.items():
            values[graph.node_id(node)] = term
        return fold.reference(levels, values)
    return fold.reference(levels)


def all_folds():
    return [
        CountFold(),
        WeightedSumFold(),
        HopDiscountFold(alpha=0.6),
        TimeDecayFold(lam=0.15),
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 20),
    num_events=st.integers(5, 90),
    horizon_offset=st.one_of(st.none(), st.integers(1, 30)),
    data=st.data(),
)
def test_every_fold_agrees_on_every_engine_and_the_dict_reference(
    seed, num_nodes, num_events, horizon_offset, data
):
    graph = build_stream_graph(seed, num_nodes, num_events)
    delta = graph.csr()
    fresh = DeltaCSR(graph)
    ids = list(range(graph.num_interned))
    if not ids:
        return

    t = graph.time
    horizon = None if horizon_offset is None else float(t + horizon_offset)
    # Same caller-side clamp the oracle applies: alive edges expire at
    # t + 1 or later, so every engine answers the identical question.
    eff = max(float(t + 1), horizon) if horizon is not None else float(t + 1)

    id_sets = data.draw(
        st.lists(
            st.lists(st.sampled_from(ids), min_size=0, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    weights_by_node = {
        graph.node_of_id(i): 1.0 + (i % 7) * 0.5 for i in ids
    }
    weights = np.asarray(
        [weights_by_node[graph.node_of_id(i)] for i in ids], dtype=np.float64
    )

    shards = ShardedOracleExecutor(2, min_batch=1)
    try:
        for fold in all_folds():
            kwargs = {"weights": weights} if fold.needs_weights else {}
            via_delta = delta.fold_spread_sums(id_sets, horizon, fold, **kwargs)
            via_fresh = fresh.fold_spread_sums(id_sets, horizon, fold, **kwargs)
            via_shards = (
                shards.weighted_spread_sums(graph, id_sets, horizon, weights=weights)
                if fold.needs_weights
                else shards.fold_spread_sums(graph, id_sets, horizon, fold=fold)
            )

            # Production guarantee: the three engines are bit-identical.
            assert via_delta == via_fresh == via_shards

            expected = [
                reference_score(
                    graph,
                    fold,
                    [graph.node_of_id(i) for i in id_set],
                    eff,
                    weights_by_node,
                )
                if id_set
                else 0.0
                for id_set in id_sets
            ]
            if isinstance(fold, TimeDecayFold):
                # The reference derives its terms through math.exp; numpy's
                # vectorized exp may differ in the last ulp, nothing more.
                assert via_delta == pytest.approx(expected, rel=1e-12, abs=1e-12)
            else:
                assert via_delta == expected

            if isinstance(fold, CountFold):
                # count must be *byte*-identical to the pre-fold popcount path.
                assert via_delta == [
                    float(c) for c in delta.spread_counts(id_sets, horizon)
                ]
        assert shards.health_report()["incidents"] == {}
    finally:
        shards.close()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 20),
    num_events=st.integers(20, 120),
    horizon_offset=st.one_of(st.none(), st.integers(1, 30)),
    data=st.data(),
)
def test_populated_overlay_on_the_vector_path_matches_snapshot_and_reference(
    seed, num_nodes, num_events, horizon_offset, data
):
    """Every fold, both sweep directions, through a *populated* overlay.

    The delta engine is pinned to its vectorized path (cutover 0) and
    compacts early, so sweeps mix base arrays and overlay entries — the
    state sharded workers sweep between compactions.  Small streams
    otherwise stay on the scalar walk, which is how a hop-level bug in
    the overlay branch of the vector sweep went unseen.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SCALAR_LIMIT_ENV, "0")
        patch.setattr(DeltaCSR, "COMPACT_MIN", 16)
        graph = build_stream_graph(seed, num_nodes, num_events, sync_every=9)
    delta = graph.csr()  # default trigger again: no compaction here
    assert delta.scalar_pair_limit == 0
    assume(delta.overlay_entries > 0)
    fresh = DeltaCSR(graph)  # empty log: queries its base alone
    snapshot = fresh.base
    ids = list(range(graph.num_interned))
    t = graph.time
    horizon = None if horizon_offset is None else float(t + horizon_offset)
    eff = max(float(t + 1), horizon) if horizon is not None else float(t + 1)
    id_sets = data.draw(
        st.lists(
            st.lists(st.sampled_from(ids), min_size=1, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    weights_by_node = {graph.node_of_id(i): 1.0 + (i % 7) * 0.5 for i in ids}
    weights = np.asarray(
        [weights_by_node[graph.node_of_id(i)] for i in ids], dtype=np.float64
    )
    base_arrays = (snapshot.indptr, snapshot.indices, snapshot.expiries)
    for reverse in (False, True):
        delta_kernel = delta.kernel_clone(reverse)
        snapshot_kernel = TraversalKernel(
            *(build_transpose(*base_arrays) if reverse else base_arrays)
        )
        for fold in all_folds():
            node_values = weights if fold.needs_weights else None
            if fold.derives_node_values:
                node_values = fresh.fold_node_values(fold, horizon)
                assert np.array_equal(
                    delta.fold_node_values(fold, horizon), node_values
                )
            via_delta = fold.batch(delta_kernel, id_sets, eff, node_values)
            via_snapshot = fold.batch(snapshot_kernel, id_sets, eff, node_values)
            assert via_delta == via_snapshot
            expected = [
                reference_score(
                    graph,
                    fold,
                    [graph.node_of_id(i) for i in id_set],
                    eff,
                    weights_by_node,
                    reverse,
                )
                for id_set in id_sets
            ]
            if isinstance(fold, TimeDecayFold):
                assert via_delta == pytest.approx(expected, rel=1e-12, abs=1e-12)
            else:
                assert via_delta == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 16),
    num_events=st.integers(5, 70),
    horizon_offset=st.one_of(st.none(), st.integers(1, 25)),
    data=st.data(),
)
def test_oracle_semantics_match_dict_reference_and_replay_protocol(
    seed, num_nodes, num_events, horizon_offset, data
):
    graph = build_stream_graph(seed, num_nodes, num_events)
    nodes = sorted(graph.node_set(), key=repr)
    if not nodes:
        return
    t = graph.time
    horizon = None if horizon_offset is None else float(t + horizon_offset)
    eff = max(float(t + 1), horizon) if horizon is not None else float(t + 1)

    sets = data.draw(
        st.lists(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        )
    )

    for semantics in ["count", ("hop_discount", {"alpha": 0.7}), ("time_decay", {"lam": 0.2})]:
        fold = resolve_fold(semantics)
        oracle = InfluenceOracle(graph, semantics=semantics)
        batched = oracle.spread_many(sets, horizon)

        # spread_many replays the sequential protocol exactly.
        sequential = [
            InfluenceOracle(graph, semantics=semantics).spread(s, horizon)
            for s in sets
        ]
        assert batched == sequential

        expected = [
            reference_score(graph, fold, set(s), eff, {}) for s in sets
        ]
        if isinstance(fold, TimeDecayFold):
            assert batched == pytest.approx(expected, rel=1e-12, abs=1e-12)
        else:
            assert batched == expected
        if isinstance(fold, CountFold):
            # Unchanged public contract: count spreads stay ints.
            assert all(isinstance(value, int) for value in batched)


@pytest.fixture(scope="module")
def executor():
    from repro.parallel.executor import ShardedOracleExecutor

    executor = ShardedOracleExecutor(WORKERS, min_batch=1)
    yield executor
    executor.close()


@pytest.mark.parametrize(
    "semantics",
    ["count", ("hop_discount", {"alpha": 0.55}), ("time_decay", {"lam": 0.08})],
    ids=["count", "hop_discount", "time_decay"],
)
@pytest.mark.parametrize("graph_seed", [3, 41])
def test_sharded_fold_evaluation_is_bit_identical_to_serial(
    executor, semantics, graph_seed
):
    """OP_FSPREAD sharding is value-transparent for every semantics."""
    graph = build_stream_graph(graph_seed, 18, 160)
    nodes = sorted(graph.node_set(), key=repr)
    sets = [(node,) for node in nodes]
    sets += [tuple(nodes[i : i + 3]) for i in range(0, len(nodes) - 3, 3)]
    horizon = float(graph.time + 9)

    serial = InfluenceOracle(graph, max_cache_entries=0, semantics=semantics)
    sharded = InfluenceOracle(
        graph, max_cache_entries=0, semantics=semantics, parallel=executor
    )
    serial_values = serial.spread_many(sets, horizon)
    sharded_values = sharded.spread_many(sets, horizon)

    assert sharded_values == serial_values  # bit-identical, not approx
    assert sharded.calls == serial.calls == len(sets)


# ----------------------------------------------------------------------
# Per-semantics memo isolation
# ----------------------------------------------------------------------
def test_memo_keys_isolate_semantics_parameterizations():
    """Two parameterizations of one fold never share cache entries."""
    graph = build_stream_graph(11, 12, 80)
    node = sorted(graph.node_set(), key=repr)[0]

    sharp = InfluenceOracle(graph, semantics=("hop_discount", {"alpha": 0.3}))
    mild = InfluenceOracle(graph, semantics=("hop_discount", {"alpha": 0.9}))
    first_sharp = sharp.spread([node])
    first_mild = mild.spread([node])
    assert first_sharp != first_mild  # distinct arithmetic, distinct values

    # Cached replays return the original values unchanged.
    assert sharp.spread([node]) == first_sharp
    assert mild.spread([node]) == first_mild
    assert sharp.calls == 1 and mild.calls == 1

    # The memo key embeds the fold token, so the same seed set under the
    # same horizon maps to different entries per parameterization.
    assert sharp.fold.token() != mild.fold.token()
    key_sharp = next(iter(sharp._memo.data))
    key_mild = next(iter(mild._memo.data))
    assert key_sharp != key_mild
    assert key_sharp[:2] == key_mild[:2]  # same (horizon, nodes) prefix


def test_count_memo_keys_unchanged_by_the_fold_seam():
    """Default oracles keep the pre-refactor 2-tuple memo keys."""
    graph = build_stream_graph(11, 12, 80)
    node = sorted(graph.node_set(), key=repr)[0]
    oracle = InfluenceOracle(graph)
    oracle.spread([node])
    key = next(iter(oracle._memo.data))
    assert len(key) == 2  # (min_expiry, frozenset) — no token appended


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "semantics",
    [
        "count",
        ("hop_discount", {"alpha": 0.35}),
        ("time_decay", {"lam": 0.4}),
    ],
    ids=["count", "hop_discount", "time_decay"],
)
def test_oracle_semantics_round_trip_through_json(semantics):
    graph = build_stream_graph(23, 14, 100)
    nodes = sorted(graph.node_set(), key=repr)[:6]
    oracle = InfluenceOracle(graph, semantics=semantics)
    before = oracle.spread_many([(n,) for n in nodes])

    payload = json.loads(json.dumps(oracle_to_dict(oracle)))
    restored = oracle_from_dict(payload, graph)

    assert restored.fold == oracle.fold
    assert restored.semantics == oracle.semantics
    assert restored.spread_many([(n,) for n in nodes]) == before


def test_pre_semantics_checkpoints_default_to_count():
    """Default-fold payloads omit the key entirely, so checkpoints written
    before (and after) the fold seam are byte-identical and both restore
    to ``count``."""
    graph = build_stream_graph(23, 14, 100)
    payload = oracle_to_dict(InfluenceOracle(graph))
    assert "semantics" not in payload
    restored = oracle_from_dict(payload, graph)
    assert restored.semantics == "count"


def test_unknown_serialized_semantics_rejected_loudly():
    graph = TDNGraph()
    payload = oracle_to_dict(InfluenceOracle(graph))
    payload["semantics"] = ["entropy", {}]
    with pytest.raises(SemanticsError, match="unknown influence semantics"):
        oracle_from_dict(payload, graph)


def test_fold_registry_is_closed_and_stable():
    assert FOLD_NAMES == ("count", "hop_discount", "time_decay", "weighted_sum")
    for name in FOLD_NAMES:
        fold = resolve_fold(name)
        assert fold.name == name
        # spec round-trips through its own wire form, lists included
        # (JSON turns tuples into lists).
        assert resolve_fold(list(fold.spec())) == fold


def test_time_decay_infinite_in_expiry_at_infinite_horizon_weighs_one():
    """An infinite-lifetime in-edge queried at an infinite horizon leaves
    ``inf`` of lifetime: its head weighs exactly 1, never NaN."""
    graph = TDNGraph()
    graph.add_interaction(Interaction("a", "b", 0, None))
    oracle = InfluenceOracle(graph, semantics="time_decay")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = oracle.spread(["a"], min_expiry=math.inf)
    assert math.isfinite(value)
    assert value == 2.0

