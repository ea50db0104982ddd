"""Micro-benchmarks for the substrate hot paths.

Not paper artifacts — these watch the operations every algorithm's cost
model bottoms out in: TDN ingestion/expiry, one oracle BFS, the changed-
node reverse BFS, sparse-timestamp clock advancement, the dict-vs-CSR
oracle backends on a 50k-edge stream, the bit-plane batched singleton
sweep versus sequential per-set BFS, the weighted bit-plane sweep versus
per-set reachable-id weight folds, the sharded 4-thread ``spread_many``
versus the serial bit-plane engine, and the generic fold route under
``count`` semantics versus the direct popcount path it must not tax.
Where numba is installed, two compiled-backend gates additionally pin
the native scalar frontier walk and the native bit-plane sweep at >= 3x
their python twins on the same stream (they self-skip elsewhere, so the
module needs no ``[native]`` extra).
Kernel-bound comparisons additionally gate their speedup ratios against
the checked-in PR 4 snapshot (:func:`assert_kernel_parity`), so the
traversal-kernel unification can never silently erode a margin.
Regressions here silently inflate every figure, so they get their own
timings.
"""

import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.sieve_adn import SieveADN
from repro.datasets.synthetic import retweet_stream
from repro.influence.oracle import InfluenceOracle
from repro.influence.changed import changed_nodes
from repro.kernels import dense_weight_sum, native_available
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import UniformLifetime

#: The compiled-backend gates self-skip where numba is absent, so this
#: module passes identically with or without the ``[native]`` extra; the
#: CI native leg is where the 3x floors actually assert.
NATIVE_GATE = pytest.mark.skipif(
    not native_available(),
    reason="numba unavailable (pip install repro[native])",
)

#: The last pre-unification perf snapshot (PR 4).  The kernel-parity
#: checks assert that the unified engines keep at least half of each
#: recorded *speedup ratio* — ratios, not wall times, so the gate is
#: meaningful on hardware other than the machine that wrote the snapshot,
#: and 0.5x slack keeps runner noise from flipping it while still
#: catching a consolidation that genuinely slowed a kernel down.
PR4_SNAPSHOT = Path(__file__).parent / "results" / "BENCH_pr4_substrate_micro.json"


def pr4_speedup(benchmark_name):
    """The snapshot's recorded speedup for one benchmark (None if absent)."""
    if not PR4_SNAPSHOT.exists():
        return None
    try:
        data = json.loads(PR4_SNAPSHOT.read_text())
    except (OSError, ValueError):
        return None
    for bench in data.get("benchmarks", []):
        if bench.get("name") == benchmark_name:
            return bench.get("extra_info", {}).get("speedup")
    return None


def assert_kernel_parity(benchmark, name, speedup):
    """Gate ``speedup`` against the PR 4 snapshot's recorded ratio."""
    recorded = pr4_speedup(name)
    benchmark.extra_info["pr4_speedup"] = recorded
    if recorded:
        floor = 0.5 * recorded
        assert speedup >= floor, (
            f"kernel parity: {name} speedup {speedup:.2f}x fell below half "
            f"of the PR 4 snapshot's {recorded:.2f}x"
        )


def build_events(num_events=3_000, num_nodes=400, max_lifetime=300, seed=5):
    rng = random.Random(seed)
    events = []
    for t in range(num_events):
        u, v = rng.sample(range(num_nodes), 2)
        events.append(Interaction(f"n{u}", f"n{v}", t, rng.randint(1, max_lifetime)))
    return events


def build_graph(events):
    graph = TDNGraph()
    for event in events:
        graph.advance_to(event.time)
        graph.add_interaction(event)
    return graph


def test_graph_ingestion_and_expiry(benchmark):
    """Full replay: advance + insert 3k events with rolling expiries."""
    events = build_events()

    def replay():
        graph = build_graph(events)
        return graph.num_edges

    alive = benchmark(replay)
    assert alive > 0


def test_oracle_bfs(benchmark):
    """One uncached spread evaluation on a ~decayed 400-node graph."""
    graph = build_graph(build_events())
    oracle = InfluenceOracle(graph)
    seeds = sorted(graph.node_set(), key=repr)[:10]

    def evaluate():
        oracle.invalidate()  # force a real BFS each round
        return oracle.spread(seeds)

    value = benchmark(evaluate)
    assert value >= len(seeds)


def test_changed_nodes_reverse_bfs(benchmark):
    """Ancestor computation for a 10-edge batch (SIEVEADN's per-batch prep)."""
    events = build_events()
    graph = build_graph(events)
    batch = events[-10:]

    result = benchmark(lambda: changed_nodes(graph, batch))
    assert result


def test_sparse_clock_advance(benchmark):
    """advance_to over a 10^7-step gap: O(expired), never O(Δt)."""

    def jump():
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 5))
        graph.add_interaction(Interaction("b", "c", 0, 10_000_000))
        graph.add_interaction(Interaction("c", "d", 0, None))
        removed = graph.advance_to(9_999_999)
        return removed, graph.num_edges

    removed, alive = benchmark(jump)
    assert (removed, alive) == (1, 2)


def lifetimed_50k_events(num_events=50_000, num_users=3_000, seed=7):
    """The 50k-edge synthetic stream, one event per step, with uniform
    20k-60k lifetimes: ~27k distinct expiry keys are live at its end."""
    events = retweet_stream(num_users, num_events, seed=seed)
    policy = UniformLifetime(20_000, 60_000, seed=seed + 1)
    return [
        event if event.lifetime is not None else policy.assign(event)
        for event in events
    ]


def build_50k_stream(num_events=50_000, num_users=3_000, seed=7):
    """The 50k-edge synthetic stream the backend comparison runs on.

    Long uniform lifetimes keep most of the stream alive at the end of the
    replay, so the evaluation graph is a genuinely large multi-hop network
    (~35k alive directed pairs) rather than a decayed remnant.
    """
    graph = TDNGraph()
    for event in lifetimed_50k_events(num_events, num_users, seed):
        graph.advance_to(event.time)
        graph.add_interaction(event)
    return graph


def test_oracle_throughput_dict_vs_csr(benchmark):
    """CSR backend must deliver >= 3x oracle-evaluation throughput.

    Both backends evaluate the same batch of candidate sets (uncached, so
    every evaluation is a real traversal) on the 50k-edge stream, and both
    must return identical values; a SIEVEADN candidate sweep on top must
    produce the identical Solution.  The 3x floor is the acceptance bar
    for the compact engine — the dict backend stays as the reference.
    Each side is timed best-of-3 so a noisy shared CI runner cannot flip
    the assertion (the observed margin is well above the floor).
    """
    graph = build_50k_stream()
    nodes = sorted(graph.node_set(), key=repr)
    candidate_sets = [(node,) for node in nodes[:150]]
    candidate_sets += [tuple(nodes[i : i + 5]) for i in range(0, 100, 5)]
    horizon = graph.time + 10_000

    def evaluate(backend):
        oracle = InfluenceOracle(graph, backend=backend, max_cache_entries=0)
        values = oracle.spread_many(candidate_sets, horizon)
        return values, oracle.calls

    def best_of(runs, func):
        best = float("inf")
        result = None
        for _ in range(runs):
            started = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - started)
        return result, best

    graph.csr()  # do not bill the one-off snapshot build to either side
    (dict_values, dict_calls), dict_seconds = best_of(3, lambda: evaluate("dict"))
    (csr_values, csr_calls), csr_seconds = best_of(3, lambda: evaluate("csr"))
    # One more recorded round so the timing lands in the JSON export.
    benchmark.pedantic(lambda: evaluate("csr"), rounds=1, iterations=1)

    assert csr_values == dict_values
    assert csr_calls == dict_calls == len(candidate_sets)

    speedup = dict_seconds / csr_seconds
    benchmark.extra_info["alive_pairs"] = graph.num_pairs
    benchmark.extra_info["dict_seconds"] = round(dict_seconds, 4)
    benchmark.extra_info["csr_seconds"] = round(csr_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\noracle evaluation on {graph.num_pairs} alive pairs: "
        f"dict {dict_seconds:.3f}s, csr {csr_seconds:.3f}s ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, f"CSR speedup {speedup:.2f}x below the 3x floor"
    # Kernel parity: the unified kernel must keep the CSR engine's margin
    # over the dict reference relative to the PR 4 snapshot.
    assert_kernel_parity(benchmark, "test_oracle_throughput_dict_vs_csr", speedup)

    # Identical tracker solutions on the same stream-built graph: one
    # SIEVEADN candidate sweep per backend, same candidates, same horizon.
    solutions = {}
    for backend in ("dict", "csr"):
        sieve = SieveADN(5, 0.25, graph, InfluenceOracle(graph, backend=backend))
        sieve.process_candidates(nodes[:80])
        solutions[backend] = sieve.query()
    assert solutions["csr"] == solutions["dict"]
    benchmark.extra_info["solution_value"] = solutions["csr"].value


def _best_of(runs, func):
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return result, best


def test_bitplane_vs_sequential_singleton_sweep(benchmark):
    """Batched bit-plane ``spread_many`` must beat sequential spreads.

    Same 150-singleton sweep on the 50k-edge stream graph: the sequential
    side issues one per-set BFS through ``oracle.spread``; the batched
    side packs the sets into uint64 visited-mask planes (64 per shared
    traversal).  Values and call counts must be identical — only the
    physical traversal is shared.  The 2x floor is deliberately far below
    the observed ~5x so runner noise cannot flip it.
    """
    graph = build_50k_stream()
    nodes = sorted(graph.node_set(), key=repr)
    candidate_sets = [(node,) for node in nodes[:150]]
    horizon = graph.time + 10_000
    graph.csr()  # engine build billed to neither side

    def sequential():
        oracle = InfluenceOracle(graph, max_cache_entries=0)
        return [oracle.spread(s, horizon) for s in candidate_sets], oracle.calls

    def batched():
        oracle = InfluenceOracle(graph, max_cache_entries=0)
        return oracle.spread_many(candidate_sets, horizon), oracle.calls

    (seq_values, seq_calls), seq_seconds = _best_of(3, sequential)
    (bat_values, bat_calls), bat_seconds = _best_of(3, batched)
    benchmark.pedantic(batched, rounds=1, iterations=1)

    assert bat_values == seq_values
    assert bat_calls == seq_calls == len(candidate_sets)

    speedup = seq_seconds / bat_seconds
    benchmark.extra_info["sequential_seconds"] = round(seq_seconds, 4)
    benchmark.extra_info["bitplane_seconds"] = round(bat_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\nsingleton sweep of {len(candidate_sets)} sets: sequential "
        f"{seq_seconds:.3f}s, bit-plane {bat_seconds:.3f}s ({speedup:.1f}x)"
    )
    assert speedup >= 2.0, f"bit-plane speedup {speedup:.2f}x below the 2x floor"
    # Kernel parity: unification must not have eroded the bit-plane
    # engine's margin over sequential sweeps relative to PR 4.
    assert_kernel_parity(
        benchmark, "test_bitplane_vs_sequential_singleton_sweep", speedup
    )


def test_weighted_bitplane_vs_per_set_reachable(benchmark):
    """Weighted bit-plane batching must beat per-set reachable folds >= 2x.

    The same 960-singleton weighted sweep on the 50k-edge stream graph,
    evaluated twice: the *per-set* side replicates the pre-kernel weighted
    path — one reachable-id set materialized per candidate, the dense
    weight array summed over it in-process — while the *batched* side is
    a ``weighted_sum`` oracle's ``spread_many``, whose distinct misses
    fold the weight array inside the shared bit-plane sweep (64 weighted
    evaluations per physical traversal).  Values must be bit-identical
    (the kernel sums in canonical ascending-id order) and call counts
    must match; the 2x floor sits well under the observed margin so a
    noisy runner cannot flip it.
    """
    graph = build_50k_stream()
    nodes = sorted(graph.node_set(), key=repr)
    weights_map = {node: float(1 + (i % 9)) for i, node in enumerate(nodes)}
    candidate_sets = [(node,) for node in nodes[:960]]
    horizon = graph.time + 10_000
    engine = graph.csr()  # engine build billed to neither side
    # .get with the oracle's default: interned ids cover nodes whose
    # edges have all expired, which node_set() (hence weights_map) omits.
    weights_arr = np.asarray(
        [
            weights_map.get(graph.node_of_id(i), 1.0)
            for i in range(graph.num_interned)
        ],
        dtype=np.float64,
    )
    id_sets = [[graph.node_id(node)] for (node,) in candidate_sets]

    def per_set_reachable():
        # The PR 4 evaluation shape: one Python id set per candidate.
        return [
            dense_weight_sum(weights_arr, engine.reachable_ids(ids, horizon))
            for ids in id_sets
        ]

    def batched():
        oracle = InfluenceOracle(
            graph,
            semantics="weighted_sum",
            weights=weights_map,
            max_cache_entries=0,
        )
        return oracle.spread_many(candidate_sets, horizon), oracle.calls

    per_set_values, per_set_seconds = _best_of(3, per_set_reachable)
    (batched_values, batched_calls), batched_seconds = _best_of(3, batched)
    benchmark.pedantic(batched, rounds=1, iterations=1)

    assert batched_values == per_set_values  # bit-identical, not approx
    assert batched_calls == len(candidate_sets)

    speedup = per_set_seconds / batched_seconds
    benchmark.extra_info["per_set_seconds"] = round(per_set_seconds, 4)
    benchmark.extra_info["weighted_bitplane_seconds"] = round(batched_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\nweighted sweep of {len(candidate_sets)} sets: per-set-reachable "
        f"{per_set_seconds:.3f}s, weighted bit-plane {batched_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 2.0, (
        f"weighted bit-plane speedup {speedup:.2f}x below the 2x floor"
    )


def test_count_fold_parity_vs_direct_counts(benchmark):
    """The fold route under ``count`` must cost < 5% over spread_counts.

    The semantics refactor threads every oracle evaluation through the
    fold protocol (:mod:`repro.kernels.folds`).  ``CountFold.batch``
    delegates straight to the pre-fold popcount path, so the only
    admissible overhead is the dispatch itself plus the int-to-float
    conversion of the result list — never a second traversal.  This
    gate times the same 960-singleton sweep through both routes on the
    50k-edge stream graph (best-of-5 minima, so a noisy shared runner
    measures dispatch cost, not scheduler jitter) and pins the ratio at
    1.05; values must agree exactly.
    """
    graph = build_50k_stream()
    nodes = sorted(graph.node_set(), key=repr)
    id_sets = [[graph.node_id(node)] for node in nodes[:960]]
    horizon = graph.time + 10_000
    engine = graph.csr()  # engine build billed to neither side

    def direct():
        return engine.spread_counts(id_sets, horizon)

    def via_fold():
        return engine.fold_spread_sums(id_sets, horizon, "count")

    direct()  # shared warm-up: fault any lazy kernel state before timing
    direct_counts, direct_seconds = _best_of(5, direct)
    fold_sums, fold_seconds = _best_of(5, via_fold)
    benchmark.pedantic(via_fold, rounds=1, iterations=1)

    assert fold_sums == [float(count) for count in direct_counts]

    overhead = fold_seconds / direct_seconds
    benchmark.extra_info["direct_seconds"] = round(direct_seconds, 4)
    benchmark.extra_info["fold_seconds"] = round(fold_seconds, 4)
    benchmark.extra_info["overhead"] = round(overhead, 3)
    print(
        f"\ncount-fold parity on {len(id_sets)} sets: direct "
        f"{direct_seconds:.3f}s, fold route {fold_seconds:.3f}s "
        f"({(overhead - 1.0) * 100.0:+.1f}%)"
    )
    assert overhead < 1.05, (
        f"count fold route costs {(overhead - 1.0) * 100.0:.1f}% over the "
        "direct popcount path (floor: < 5%)"
    )


def test_sharded_vs_serial_spread_many(benchmark):
    """4-thread sharded ``spread_many`` must beat serial by >= 1.5x.

    A 1920-singleton candidate sweep on the 50k-edge stream graph — the
    one batch shape measured to gain from sharding — evaluated once
    through the serial bit-plane engine and once through a 4-thread
    sharded executor, whose shards sweep per-thread kernel clones of the
    same engine.  Values and oracle call counts must be identical
    *always* (sharding is value-transparent); the 1.5x wall-clock floor
    is asserted only where 4 hardware threads actually exist (the CI
    runners have them — a smaller container records the numbers without
    gating), and the warm-up that starts the threads and cuts the clones
    runs outside the timed region.
    """
    from repro.parallel.executor import ShardedOracleExecutor

    graph = build_50k_stream()
    nodes = sorted(graph.node_set(), key=repr)
    candidate_sets = [(node,) for node in nodes[:1920]]
    horizon = graph.time + 10_000
    workers = 4
    graph.csr()  # engine build billed to neither side

    def serial():
        oracle = InfluenceOracle(graph, max_cache_entries=0)
        return oracle.spread_many(candidate_sets, horizon), oracle.calls

    executor = ShardedOracleExecutor(workers, min_batch=1)
    try:
        def sharded():
            oracle = InfluenceOracle(graph, max_cache_entries=0, parallel=executor)
            return oracle.spread_many(candidate_sets, horizon), oracle.calls

        sharded()  # warm-up: start the threads, cut the kernel clones
        pool_ran = executor.pool_running
        (serial_values, serial_calls), serial_seconds = _best_of(3, serial)
        (shard_values, shard_calls), shard_seconds = _best_of(3, sharded)
        benchmark.pedantic(sharded, rounds=1, iterations=1)
    finally:
        executor.close()

    assert shard_values == serial_values
    assert shard_calls == serial_calls == len(candidate_sets)

    speedup = serial_seconds / shard_seconds
    cores = os.cpu_count() or 1
    floor_asserted = pool_ran and cores >= workers
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["sharded_seconds"] = round(shard_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["floor_asserted"] = floor_asserted
    print(
        f"\nsharded sweep of {len(candidate_sets)} sets ({workers} workers, "
        f"{cores} cores): serial {serial_seconds:.3f}s, sharded "
        f"{shard_seconds:.3f}s ({speedup:.1f}x, floor "
        f"{'asserted' if floor_asserted else 'skipped'})"
    )
    if floor_asserted:
        assert speedup >= 1.5, (
            f"sharded speedup {speedup:.2f}x below the 1.5x floor"
        )


def test_obs_sampling_overhead_gate(benchmark):
    """The kernel metrics hook must cost < 3% — enabled *or* disabled.

    The observability layer's contract with the kernels (ISSUE: repro.obs)
    is one ``is not None`` branch per physical sweep when disabled, and a
    1-in-``every`` sampled record when enabled.  This gate times the same
    960-singleton sweep on the 50k-edge stream graph with the sampler off
    and with it on (``every=8``, a fresh registry), alternating the two
    arms round by round and keeping each arm's best of 5, and pins the
    enabled/disabled ratio at 1.03 — which bounds the disabled branch too,
    since the enabled path is a superset of it.  Counts must be identical:
    instrumentation never touches values.
    """
    from repro.kernels.instrument import (
        disable_kernel_metrics,
        enable_kernel_metrics,
    )
    from repro.obs import names as metric_names
    from repro.obs.registry import MetricsRegistry

    graph = build_50k_stream()
    nodes = sorted(graph.node_set(), key=repr)
    id_sets = [[graph.node_id(node)] for node in nodes[:960]]
    horizon = graph.time + 10_000
    engine = graph.csr()  # engine build billed to neither side

    def sweep():
        return engine.spread_counts(id_sets, horizon)

    disable_kernel_metrics()  # the baseline really is the no-sampler branch
    sweep()  # shared warm-up: fault any lazy kernel state before timing
    registry = MetricsRegistry()
    disabled_seconds = sampled_seconds = float("inf")
    # The arms alternate round by round (best of 5 each), so host-speed
    # drift over the run lands on both arms alike instead of in the ratio.
    try:
        for _ in range(5):
            disable_kernel_metrics()
            disabled_counts, seconds = _best_of(1, sweep)
            disabled_seconds = min(disabled_seconds, seconds)
            enable_kernel_metrics(every=8, registry=registry)
            sampled_counts, seconds = _best_of(1, sweep)
            sampled_seconds = min(sampled_seconds, seconds)
    finally:
        disable_kernel_metrics()
    benchmark.pedantic(sweep, rounds=1, iterations=1)

    assert sampled_counts == disabled_counts  # bit-identical, not approx
    recorded = registry.counter_values()
    assert recorded[metric_names.KERNEL_SWEEPS_TOTAL] > 0, (
        "the sampled run never reached the registry — the hook is dead"
    )

    overhead = sampled_seconds / disabled_seconds
    benchmark.extra_info["disabled_seconds"] = round(disabled_seconds, 4)
    benchmark.extra_info["sampled_seconds"] = round(sampled_seconds, 4)
    benchmark.extra_info["overhead"] = round(overhead, 3)
    print(
        f"\nobs sampling gate on {len(id_sets)} sets: disabled "
        f"{disabled_seconds:.3f}s, sampled (every=8) {sampled_seconds:.3f}s "
        f"({(overhead - 1.0) * 100.0:+.1f}%)"
    )
    assert overhead < 1.03, (
        f"kernel metrics sampling costs {(overhead - 1.0) * 100.0:.1f}% "
        "over the disabled branch (floor: < 3%)"
    )


@NATIVE_GATE
def test_native_scalar_walk_vs_python(benchmark):
    """Compiled frontier walk must beat the interpreted loop >= 3x.

    Per-set reachability on the 50k-edge stream graph: 300 single-seed
    epoch-stamped frontier walks (the ``reachable_count`` path — the
    native side runs the jitted ``native_reach`` fixpoint, the python
    side the vectorized numpy reach over the same arrays).  Counts must
    be identical set by set; the 3x floor is the acceptance bar for the
    compiled backend on its flagship loop.  Both sides are timed
    best-of-3 minima, and the one-off JIT compilation is paid before the
    timed region (the warm-up call), matching the steady state the
    backend dispatch guarantees via its import-time probe.
    """
    graph = build_50k_stream()
    graph.csr()  # compaction billed to neither side
    nodes = sorted(graph.node_set(), key=repr)
    ids = [graph.node_id(node) for node in nodes[:300]]
    horizon = float(graph.time + 10_000)

    python_engine = DeltaCSR(graph, backend="python")
    native_engine = DeltaCSR(graph, backend="native")
    assert native_engine.backend == "native"

    def walk(engine):
        return [engine.reachable_count([i], horizon) for i in ids]

    walk(native_engine)  # JIT warm-up / cache load billed to neither side
    python_counts, python_seconds = _best_of(3, lambda: walk(python_engine))
    native_counts, native_seconds = _best_of(3, lambda: walk(native_engine))
    benchmark.pedantic(lambda: walk(native_engine), rounds=1, iterations=1)

    assert native_counts == python_counts  # identical, walk by walk

    speedup = python_seconds / native_seconds
    benchmark.extra_info["python_seconds"] = round(python_seconds, 4)
    benchmark.extra_info["native_seconds"] = round(native_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\nscalar frontier walk over {len(ids)} seeds: python "
        f"{python_seconds:.3f}s, native {native_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"native scalar walk speedup {speedup:.2f}x below the 3x floor"
    )


@NATIVE_GATE
def test_native_bitplane_sweep_vs_python(benchmark):
    """Compiled bit-plane sweep must beat the numpy sweep >= 3x.

    The 960-singleton batched ``spread_counts`` sweep on the 50k-edge
    stream graph — 64 uint64 visited planes per shared traversal — run
    through the same engine under both backends.  The python side is
    already vectorized numpy, so this floor certifies the jitted
    level-propagation fixpoint specifically, not interpreter overhead.
    Counts must be identical; best-of-3 minima and a pre-timed warm-up
    keep compilation and runner noise out of the measurement.
    """
    graph = build_50k_stream()
    graph.csr()  # compaction billed to neither side
    nodes = sorted(graph.node_set(), key=repr)
    id_sets = [[graph.node_id(node)] for node in nodes[:960]]
    horizon = float(graph.time + 10_000)

    python_engine = DeltaCSR(graph, backend="python")
    native_engine = DeltaCSR(graph, backend="native")
    assert native_engine.backend == "native"

    native_engine.spread_counts(id_sets, horizon)  # JIT warm-up
    python_counts, python_seconds = _best_of(
        3, lambda: python_engine.spread_counts(id_sets, horizon)
    )
    native_counts, native_seconds = _best_of(
        3, lambda: native_engine.spread_counts(id_sets, horizon)
    )
    benchmark.pedantic(
        lambda: native_engine.spread_counts(id_sets, horizon),
        rounds=1,
        iterations=1,
    )

    assert native_counts == python_counts  # identical, set by set

    speedup = python_seconds / native_seconds
    benchmark.extra_info["python_seconds"] = round(python_seconds, 4)
    benchmark.extra_info["native_seconds"] = round(native_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\nbit-plane sweep of {len(id_sets)} sets: python "
        f"{python_seconds:.3f}s, native {native_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"native bit-plane speedup {speedup:.2f}x below the 3x floor"
    )


def recount(graph):
    """``(edges, pairs, nodes, bucketed edges)`` recounted from scratch."""
    counts = [count for _, _, count in graph.alive_pairs_with_counts()]
    bucketed = sum(len(bucket) for bucket in graph._expiry_buckets.values())
    return sum(counts), len(counts), len(graph.node_set()), bucketed


def test_ingest_and_expire_50k_stream(benchmark):
    """Ingest, then expire, the 50k stream with 20k-60k lifetimes.

    The expiry bucket dict is the graph's only expiry index.  Ingest
    keeps ~27k keys live while the per-step advances drain the due ones;
    one jump past the last expiry then drains the rest.  Best of 3, the
    recounts off the clock; after each phase the O(1) counters must
    equal a recount of the adjacency and the buckets.
    """
    events = lifetimed_50k_events()
    end = int(max(event.expiry for event in events))

    def replay():
        started = time.perf_counter()
        graph = TDNGraph()
        for event in events:
            graph.advance_to(event.time)
            graph.add_interaction(event)
        ingest_seconds = time.perf_counter() - started
        live_keys = len(graph._expiry_buckets)
        ingested = (graph.num_edges, graph.num_pairs, graph.num_nodes, graph.num_edges)
        assert recount(graph) == ingested
        started = time.perf_counter()
        graph.advance_to(end)
        seconds = ingest_seconds + time.perf_counter() - started
        assert recount(graph) == (0, 0, 0, 0)
        assert (graph.num_edges, graph.num_pairs, graph.num_nodes) == (0, 0, 0)
        return seconds, live_keys, ingested

    best, live_keys, ingested = min(replay() for _ in range(3))
    benchmark.pedantic(replay, rounds=1, iterations=1)
    assert live_keys > 20_000
    benchmark.extra_info["live_keys"] = live_keys
    benchmark.extra_info["seconds"] = round(best, 4)
    print(
        f"\ningest + expire of {len(events)} edges ({live_keys} live expiry "
        f"keys, {ingested[1]} alive pairs after ingest): {best:.3f}s"
    )
