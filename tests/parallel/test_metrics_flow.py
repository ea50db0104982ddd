"""End-to-end metrics acceptance: a faulted sharded ingest run.

Drives a sharded :class:`IngestService` run with worker-kill faults
injected and then asserts the process-default registry's Prometheus
exposition carries non-zero series for every layer the PR instruments:
sampled kernel sweeps, oracle memo hits and misses, the executor's
shard-latency histogram, degradation transitions, worker restarts,
epoch lag, and batch-apply latency — with the worker-side counters
(``repro_worker_tasks_total`` only ever increments inside a worker
process) proving the owner-side delta merge actually ran.
"""

import asyncio
import os
import random
import time
import warnings

import pytest

from repro.core.tracker import InfluenceTracker
from repro.influence.oracle import InfluenceOracle
from repro.kernels.instrument import disable_kernel_metrics, enable_kernel_metrics
from repro.obs import names as metric_names
from repro.obs.export import parse_prometheus_text
from repro.obs.registry import metrics_registry
from repro.parallel.executor import ShardedOracleExecutor
from repro.parallel.faults import FaultPlan
from repro.parallel.plane import shared_memory_available
from repro.parallel.service import IngestService
from repro.tdn.graph import TDNGraph
from repro.tdn.lifetimes import GeometricLifetime

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "3"))

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(autouse=True)
def quiet_degradation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def batches(count=10, width=12):
    rng = random.Random(SEED + 21)
    out = []
    for t in range(count):
        out.append(
            (
                t,
                [
                    (f"u{rng.randrange(width)}", f"v{rng.randrange(width)}", None)
                    for _ in range(4)
                ],
            )
        )
    return out


#: Wall-clock bound on feeding extra batches until ``until()`` holds.  On
#: a busy host worker 1 can drain every shard before worker 0 claims the
#: task its fault fires on, and the supervisor restarts a dead worker
#: only when a later request arrives, so a fixed stream may end first.
UNTIL_DEADLINE_S = 20.0

#: Cap on extra batches fed while waiting for ``until()``.
UNTIL_MAX_BATCHES = 1000


def run_sharded_ingest(fault_spec=None, count=10, until=None):
    """One sharded ingest run; returns the drained TopKAnswer.

    With ``until``, batches keep coming after the first ``count``, one
    drained batch at a time, until ``until()`` holds or
    :data:`UNTIL_DEADLINE_S` passes.
    """
    fault_plan = (
        FaultPlan.parse(f"{fault_spec};seed={SEED}") if fault_spec else None
    )

    async def run():
        graph = TDNGraph()
        executor = ShardedOracleExecutor(2, min_batch=1, fault_plan=fault_plan)
        try:
            oracle = InfluenceOracle(graph, parallel=executor)
            tracker = InfluenceTracker(
                "hist-approx",
                k=3,
                epsilon=0.3,
                lifetime_policy=GeometricLifetime(0.05, 60, seed=SEED),
                graph=graph,
                oracle=oracle,
            )
            service = IngestService(tracker)
            await service.start()
            try:
                extra = UNTIL_MAX_BATCHES if until is not None else 0
                stream = batches(count=count + extra)
                for t, batch in stream[:count]:
                    await service.submit(t, batch)
                answer = await service.drain()
                deadline = time.monotonic() + UNTIL_DEADLINE_S
                for t, batch in stream[count:]:
                    if until() or time.monotonic() >= deadline:
                        break
                    await service.submit(t, batch)
                    answer = await service.drain()
            finally:
                await service.close()
        finally:
            executor.close()
        return answer

    return asyncio.run(run())


def test_faulted_sharded_ingest_populates_every_instrumented_layer():
    registry = metrics_registry()
    registry.reset()
    enable_kernel_metrics(every=2)

    def restarted():
        return registry.counter_values()[metric_names.WORKER_RESTARTS_TOTAL] > 0

    try:
        answer = run_sharded_ingest(fault_spec="kill=w0:2", until=restarted)
    finally:
        disable_kernel_metrics()
    assert answer.epoch > 0 and not answer.stale

    families = parse_prometheus_text(registry.render_prometheus())

    def sample(family: str, series: str = "") -> float:
        value = families[family]["samples"][series or family]
        assert isinstance(value, float)
        return value

    # Kernel sweeps, recorded through the sampled hook (owner and
    # workers; worker deltas arrive through the merge protocol).
    assert sample(metric_names.KERNEL_SWEEPS_TOTAL) > 0
    assert sample(metric_names.KERNEL_REACHED_NODES_TOTAL) > 0
    # Oracle memo traffic.
    assert sample(metric_names.ORACLE_MEMO_HITS_TOTAL) > 0
    assert sample(metric_names.ORACLE_MEMO_MISSES_TOTAL) > 0
    # Executor dispatches and the per-shard latency histogram.
    assert sample(metric_names.EXECUTOR_DISPATCHES_TOTAL) > 0
    latency = metric_names.EXECUTOR_SHARD_LATENCY_SECONDS
    assert sample(latency, f"{latency}_count") > 0
    # The injected worker kills: degradation records and pool restarts.
    assert sample(metric_names.DEGRADATION_TRANSITIONS_TOTAL) > 0
    assert sample(metric_names.DEGRADATION_INCIDENTS_TOTAL) > 0
    assert sample(metric_names.WORKER_RESTARTS_TOTAL) > 0
    # Ingest service: epoch lag and batch-apply latency histograms.
    lag = metric_names.INGEST_EPOCH_LAG_BATCHES
    assert sample(lag, f"{lag}_count") >= len(batches())
    apply_latency = metric_names.INGEST_BATCH_APPLY_SECONDS
    assert sample(apply_latency, f"{apply_latency}_count") >= len(batches())
    assert sample(metric_names.INGEST_BATCHES_APPLIED_TOTAL) >= len(batches())
    assert sample(metric_names.INGEST_EPOCH) == float(answer.epoch)
    assert sample(metric_names.INGEST_EPOCH_LAG) == 0.0  # fully drained
    # Worker-side counters only ever increment inside worker processes;
    # a non-zero owner-side value proves the delta merge ran.
    assert sample(metric_names.WORKER_TASKS_TOTAL) > 0


def test_worker_deltas_merge_without_faults():
    registry = metrics_registry()
    registry.reset()
    answer = run_sharded_ingest(count=6)
    assert not answer.stale
    values = registry.counter_values()
    assert values[metric_names.WORKER_TASKS_TOTAL] > 0
    assert values[metric_names.KERNEL_SWEEPS_TOTAL] > 0
    assert values[metric_names.WORKER_RESTARTS_TOTAL] == 0
