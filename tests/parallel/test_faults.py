"""Chaos suite: seeded fault plans against the parallel stack.

Every scenario drives the real shard threads through a deterministic
:class:`~repro.parallel.faults.FaultPlan` and pins the robustness
contract:

* results are **bit-identical to serial** under every fault — a failed
  shard is recomputed serially, which changes *where* a value is
  computed, never what it is;
* **each injected shard failure records exactly one** ``THREAD_ERROR``
  incident and one serial fallback, and the executor **stays sharded**.

The CI chaos job runs this module across a seed matrix via
``REPRO_CHAOS_SEED``; the seed picks which shards fail and feeds the
synthetic streams, so a failing combination replays exactly.
"""

import os
import random
import threading
import time
import warnings

import numpy as np
import pytest

from repro.influence.oracle import InfluenceOracle
from repro.kernels import PLANE_WIDTH, resolve_fold
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.faults import FaultPlan
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import GeometricLifetime

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "3"))

#: Sets per executor request: past 64 x 3 workers, so every shard ordinal
#: a test names is a real shard (requests are cut on 64-set planes).
WIDE = 3 * PLANE_WIDTH + 1


def plan(spec: str) -> FaultPlan:
    return FaultPlan.parse(f"{spec};seed={SEED}")


def build_graph(seed=None, num_nodes=160, num_events=640):
    rng = random.Random(SEED if seed is None else seed)
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.3:
            t += 1
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, rng.randint(5, 60)))
    return graph


def fallbacks() -> float:
    return metrics_registry().counter_values()[
        metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL
    ]


def widen(items):
    """``items`` repeated in order up to :data:`WIDE` entries."""
    return [items[i % len(items)] for i in range(WIDE)]


def thread_errors(executor) -> int:
    return executor.health_report()["incidents"].get("THREAD_ERROR", 0)


@pytest.fixture(autouse=True)
def quiet_degradation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


SWEEPS = [
    "spread_counts",
    "reachable_ids_many",
    "weighted_spread_sums",
    "fold_spread_sums",
    "ancestor_ids",
]


def sweeps(graph):
    """Every sharded entry point: name -> (executor call, serial call).

    Set requests are :func:`widen`-ed past three shards; the ancestor
    request names every interned id, more than two 64-id planes."""
    ids = list(range(graph.num_interned))
    assert len(ids) > 2 * PLANE_WIDTH
    sets = widen([[i, (i + 5) % len(ids)] for i in ids])
    weights = np.asarray([1.0 + (i % 5) * 0.5 for i in ids], dtype=np.float64)
    fold = resolve_fold("hop_discount")
    horizon = float(graph.time + 4)
    engine = graph.csr()
    return {
        "spread_counts": (
            lambda ex: ex.spread_counts(graph, sets, horizon),
            lambda: engine.spread_counts(sets, horizon),
        ),
        "reachable_ids_many": (
            lambda ex: ex.reachable_ids_many(graph, sets, horizon),
            lambda: [engine.reachable_ids(s, horizon) for s in sets],
        ),
        "weighted_spread_sums": (
            lambda ex: ex.weighted_spread_sums(graph, sets, horizon, weights=weights),
            lambda: engine.weighted_spread_sums(sets, horizon, weights),
        ),
        "fold_spread_sums": (
            lambda ex: ex.fold_spread_sums(graph, sets, horizon, fold=fold),
            lambda: engine.fold_spread_sums(sets, horizon, fold),
        ),
        "ancestor_ids": (
            lambda ex: ex.ancestor_ids(graph, ids, horizon),
            lambda: engine.ancestor_ids(ids, horizon),
        ),
    }


class TestExecutorChaos:
    @pytest.mark.parametrize("name", SWEEPS)
    def test_failed_shard_is_recomputed_serially(self, name):
        """One failed shard per sweep kind: exact answer, one incident,
        one serial fallback, and the executor stays sharded."""
        graph = build_graph()
        sharded, serial = sweeps(graph)[name]
        failing = random.Random(SEED).randint(1, 2)
        executor = ShardedOracleExecutor(
            2, min_batch=1, fault_plan=plan(f"shard={failing}")
        )
        try:
            before = fallbacks()
            assert sharded(executor) == serial(), name
            assert thread_errors(executor) == 1
            assert fallbacks() == before + 1
            assert executor.health_report()["state"] == "sharded"
            # The plan is spent: the next request shards cleanly.
            assert sharded(executor) == serial(), name
            assert thread_errors(executor) == 1
            assert fallbacks() == before + 1
        finally:
            executor.close()

    def test_every_shard_failing_still_answers_exactly(self):
        """A request whose shards all fail is answered wholly serially."""
        graph = build_graph()
        sharded, serial = sweeps(graph)["spread_counts"]
        executor = ShardedOracleExecutor(
            3, min_batch=1, fault_plan=plan("shard=1,2,3")
        )
        try:
            assert sharded(executor) == serial()
            assert thread_errors(executor) == 3
            assert executor.health_report()["state"] == "sharded"
        finally:
            executor.close()

    def test_worker_kill_mid_spread_recovers_and_stays_exact(self):
        """A shard killed partway through a growing stream of spread
        requests: every answer stays exact, the fault costs one incident
        and one fallback, and later requests shard cleanly."""
        rng = random.Random(SEED)
        graph = build_graph()
        failing = rng.randint(5, 12)
        executor = ShardedOracleExecutor(
            2, min_batch=1, fault_plan=plan(f"shard={failing}")
        )
        before = fallbacks()
        try:
            for step in range(12):
                graph.advance_to(graph.time + 1)
                u, v = rng.sample(range(40), 2)
                graph.add_interaction(Interaction(f"n{u}", f"n{v}", graph.time, 20))
                sets = widen([[i] for i in range(graph.num_interned)])
                assert executor.spread_counts(graph, sets) == (
                    graph.csr().spread_counts(sets, None)
                ), step
            assert executor._fault_plan._shards_seen > failing
            assert thread_errors(executor) == 1
            assert fallbacks() == before + 1
            assert executor.health_report()["state"] == "sharded"
        finally:
            executor.close()

    def test_delayed_shard_misses_deadline_then_serial_fallback(self, monkeypatch):
        """A shard slower than ``result_timeout`` is recomputed serially on
        the caller's thread; its clones are never handed out again."""
        graph = build_graph()
        sharded, serial = sweeps(graph)["spread_counts"]
        run_shard = ShardedOracleExecutor._run_shard
        lock = threading.Lock()
        late = []  # the delayed shard's kernel clone
        finished = threading.Event()

        def slow_first_shard(run, kernel, part, fail):
            with lock:
                first = not late
                if first:
                    late.append(kernel)
            if not first:
                return run_shard(run, kernel, part, fail)
            time.sleep(2.5)
            try:
                return run_shard(run, kernel, part, fail)
            finally:
                finished.set()

        monkeypatch.setattr(
            ShardedOracleExecutor, "_run_shard", staticmethod(slow_first_shard)
        )
        executor = ShardedOracleExecutor(2, min_batch=1, result_timeout=1.0)
        try:
            before = fallbacks()
            generation = executor.health_report()["plane_generation"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert sharded(executor) == serial()
            report = executor.health_report()
            assert report["incidents"] == {"THREAD_ERROR": 1}
            assert any("TimeoutError" in str(w.message) for w in caught)
            assert fallbacks() == before + 1
            assert report["state"] == "sharded"
            assert finished.wait(timeout=30.0)
            # The late shard's clone is retired: the next request cuts anew.
            assert sharded(executor) == serial()
            assert executor.health_report()["plane_generation"] == generation + 2
            assert late[0] not in executor.ensure_plane(graph)
            assert fallbacks() == before + 1
        finally:
            executor.close()


class TestTrackerChaos:
    def stream(self, num_nodes=30, num_steps=16, per_step=4, max_l=25):
        rng = random.Random(SEED)
        policy = GeometricLifetime(0.08, max_l, seed=SEED + 1)
        batches = []
        for t in range(num_steps):
            batch = []
            for _ in range(rng.randint(1, per_step)):
                u, v = rng.sample(range(num_nodes), 2)
                batch.append(policy.assign(Interaction(f"n{u}", f"n{v}", t)))
            batches.append((t, batch))
        return batches

    def replay(self, name, batches, oracle_factory):
        from repro.core.basic_reduction import BasicReduction
        from repro.core.hist_approx import HistApprox
        from repro.core.sieve_adn import SieveADN

        graph = TDNGraph()
        oracle = oracle_factory(graph)
        algorithm = {
            "sieve-adn": lambda: SieveADN(4, 0.25, graph, oracle),
            "basic-reduction": lambda: BasicReduction(3, 0.3, 25, graph, oracle),
            "hist-approx": lambda: HistApprox(3, 0.3, graph, oracle),
        }[name]()
        trace = []
        for t, batch in batches:
            graph.advance_to(t)
            for interaction in batch:
                graph.add_interaction(interaction)
            algorithm.on_batch(t, batch)
            solution = algorithm.query()
            trace.append((tuple(solution.nodes), solution.value, oracle.calls))
        return trace

    @pytest.mark.parametrize(
        "name", ["sieve-adn", "basic-reduction", "hist-approx"]
    )
    def test_trackers_bit_identical_under_env_fault_plan(self, name, monkeypatch):
        """All three trackers replay bit-identically to serial while the
        ``REPRO_FAULTS`` plan fails seeded shards under them; each
        failure is one ``THREAD_ERROR`` incident and one serial
        fallback, and the executor never leaves sharded mode."""
        batches = self.stream()
        serial_trace = self.replay(name, batches, lambda g: InfluenceOracle(g))
        ordinals = sorted(random.Random(SEED).sample(range(1, 41), 4))
        spec = f"shard={','.join(map(str, ordinals))};seed={SEED}"
        monkeypatch.setenv("REPRO_FAULTS", spec)
        executor = ShardedOracleExecutor(2, min_batch=1)
        before = fallbacks()
        try:
            chaos_trace = self.replay(
                name, batches, lambda g: InfluenceOracle(g, parallel=executor)
            )
            report = executor.health_report()
            shards_seen = executor._fault_plan._shards_seen
        finally:
            executor.close()
        assert chaos_trace == serial_trace
        assert shards_seen >= ordinals[-1], "stream ended before every fault"
        assert report["incidents"] == {"THREAD_ERROR": len(ordinals)}
        assert fallbacks() == before + len(ordinals)
        assert report["state"] == "sharded"
