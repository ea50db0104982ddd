"""End-to-end metrics acceptance: a faulted sharded ingest run.

Drives a sharded :class:`IngestService` run with shard failures injected
and then asserts the process-default registry's Prometheus exposition
carries non-zero series for every instrumented layer: sampled kernel
sweeps (including those run on shard threads), oracle memo hits and
misses, the executor's dispatch counter, shard-latency histogram and
serial fallbacks, executor health records, epoch lag and batch-apply
latency.
"""

import asyncio
import os
import random
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
from repro.parallel.service import IngestService
from repro.tdn.graph import TDNGraph
from repro.tdn.lifetimes import GeometricLifetime

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "3"))


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


def run_sharded_ingest(fault_spec=None, count=10):
    """One sharded ingest run; returns the drained TopKAnswer."""
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
                for t, batch in batches(count=count):
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
    try:
        answer = run_sharded_ingest(fault_spec="shard=2,5")
    finally:
        disable_kernel_metrics()
    assert answer.epoch > 0 and not answer.stale

    families = parse_prometheus_text(registry.render_prometheus())

    def sample(family: str, series: str = "") -> float:
        value = families[family]["samples"][series or family]
        assert isinstance(value, float)
        return value

    # Kernel sweeps, recorded through the sampled hook (caller and
    # shard threads share the process registry).
    assert sample(metric_names.KERNEL_SWEEPS_TOTAL) > 0
    assert sample(metric_names.KERNEL_REACHED_NODES_TOTAL) > 0
    # Oracle memo traffic.
    assert sample(metric_names.ORACLE_MEMO_HITS_TOTAL) > 0
    assert sample(metric_names.ORACLE_MEMO_MISSES_TOTAL) > 0
    # Executor dispatches and the per-shard latency histogram.
    assert sample(metric_names.EXECUTOR_DISPATCHES_TOTAL) > 0
    latency = metric_names.EXECUTOR_SHARD_LATENCY_SECONDS
    assert sample(latency, f"{latency}_count") > 0
    # The two injected shard failures (closing the executor records a
    # third health record): health records and serial fallbacks.
    assert sample(metric_names.DEGRADATION_TRANSITIONS_TOTAL) == 3
    assert sample(metric_names.DEGRADATION_INCIDENTS_TOTAL) == 3
    assert sample(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL) == 2
    # Ingest service: epoch lag and batch-apply latency histograms.
    lag = metric_names.INGEST_EPOCH_LAG_BATCHES
    assert sample(lag, f"{lag}_count") >= len(batches())
    apply_latency = metric_names.INGEST_BATCH_APPLY_SECONDS
    assert sample(apply_latency, f"{apply_latency}_count") >= len(batches())
    assert sample(metric_names.INGEST_BATCHES_APPLIED_TOTAL) >= len(batches())
    assert sample(metric_names.INGEST_EPOCH) == float(answer.epoch)
    assert sample(metric_names.INGEST_EPOCH_LAG) == 0.0  # fully drained



def test_worker_deltas_merge_without_faults():
    """Shard threads record into the caller's registry: a clean sharded
    run counts its dispatches, every shard's latency and the kernel
    sweeps, with no fallback and no fault recorded."""
    registry = metrics_registry()
    registry.reset()
    enable_kernel_metrics(every=1)
    try:
        answer = run_sharded_ingest(count=6)
    finally:
        disable_kernel_metrics()
    assert answer.epoch > 0 and not answer.stale
    values = registry.counter_values()
    dispatches = values[metric_names.EXECUTOR_DISPATCHES_TOTAL]
    assert dispatches > 0
    assert values[metric_names.KERNEL_SWEEPS_TOTAL] > 0
    assert values[metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL] == 0
    # The only health record is the executor's close.
    assert values[metric_names.DEGRADATION_INCIDENTS_TOTAL] == 1
    families = parse_prometheus_text(registry.render_prometheus())
    latency = metric_names.EXECUTOR_SHARD_LATENCY_SECONDS
    shards = families[latency]["samples"][f"{latency}_count"]
    assert dispatches <= shards <= 2 * dispatches  # one per shard, 2 threads
