"""The metric catalog: every metric name the stack may emit, in one place.

Metric names are module-level UPPER_CASE string constants, registered at
import time by :class:`~repro.obs.registry.MetricsRegistry` from the
:data:`CATALOG` below.  Instrumentation sites refer to metrics *only*
through these constants — the RPL501 lint rule rejects inline string or
f-string metric names — so the full set of series a process can expose
is known statically, the registry can pre-register help/type text before
any sample arrives, and two call sites can never drift into spelling the
same metric two ways.

Naming follows the Prometheus conventions: ``repro_`` prefix, snake
case, ``_total`` suffix on counters, base units in the name
(``_seconds``, ``_nodes``, ``_batches``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

# -- kernel sweeps (recorded via the sampled hook only) -----------------
KERNEL_SWEEPS_TOTAL = "repro_kernel_sweeps_total"
KERNEL_SWEEP_SETS_TOTAL = "repro_kernel_sweep_sets_total"
KERNEL_REACHED_NODES_TOTAL = "repro_kernel_reached_nodes_total"
KERNEL_SWEEP_REACHED_NODES = "repro_kernel_sweep_reached_nodes"

# -- kernel backend dispatch (set by repro.kernels.backend) -------------
KERNEL_BACKEND = "repro_kernel_backend"
KERNEL_NATIVE_COMPILE_SECONDS = "repro_kernel_native_compile_seconds"

# -- oracle memo table --------------------------------------------------
ORACLE_MEMO_HITS_TOTAL = "repro_oracle_memo_hits_total"
ORACLE_MEMO_MISSES_TOTAL = "repro_oracle_memo_misses_total"
ORACLE_MEMO_EVICTIONS_TOTAL = "repro_oracle_memo_evictions_total"
ORACLE_CONE_SIZE_NODES = "repro_oracle_cone_size_nodes"
ORACLE_PREFETCHED_SETS_TOTAL = "repro_oracle_prefetched_sets_total"
ORACLE_PREFETCH_SERVED_TOTAL = "repro_oracle_prefetch_served_total"

# -- sharded executor ---------------------------------------------------
EXECUTOR_DISPATCHES_TOTAL = "repro_executor_dispatches_total"
EXECUTOR_SHARD_LATENCY_SECONDS = "repro_executor_shard_latency_seconds"
EXECUTOR_SERIAL_FALLBACKS_TOTAL = "repro_executor_serial_fallbacks_total"

# -- executor health -------------------------------------------------------
DEGRADATION_TRANSITIONS_TOTAL = "repro_degradation_transitions_total"
DEGRADATION_INCIDENTS_TOTAL = "repro_degradation_incidents_total"

# -- ingest service -----------------------------------------------------
INGEST_QUEUE_DEPTH = "repro_ingest_queue_depth"
INGEST_EPOCH = "repro_ingest_epoch"
INGEST_EPOCH_LAG = "repro_ingest_epoch_lag"
INGEST_EPOCH_LAG_BATCHES = "repro_ingest_epoch_lag_batches"
INGEST_BATCH_APPLY_SECONDS = "repro_ingest_batch_apply_seconds"
INGEST_BATCHES_APPLIED_TOTAL = "repro_ingest_batches_applied_total"

#: Histogram bucket ladders (upper edges, ascending; +Inf is implicit).
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
SIZE_BUCKETS_NODES: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 50_000, 200_000,
)
LAG_BUCKETS_BATCHES: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


class MetricSpec(NamedTuple):
    """One catalog row: name, kind, help text, histogram buckets."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    buckets: Optional[Tuple[float, ...]] = None


#: Every metric the stack may emit.  The registry pre-registers the whole
#: catalog at construction, so a lookup by constant name never misses and
#: an exporter always has type/help text even for never-touched series.
CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec(
        KERNEL_SWEEPS_TOTAL, "counter",
        "physical traversal sweeps run by TraversalKernel (sampled; "
        "counts are scaled by the sampling period)",
    ),
    MetricSpec(
        KERNEL_SWEEP_SETS_TOTAL, "counter",
        "seed sets served by kernel sweeps (sampled, scaled; up to 64 "
        "sets share one bit-plane sweep)",
    ),
    MetricSpec(
        KERNEL_REACHED_NODES_TOTAL, "counter",
        "nodes reached across kernel sweeps (sampled, scaled)",
    ),
    MetricSpec(
        KERNEL_SWEEP_REACHED_NODES, "histogram",
        "reached-node count per physical sweep (sampled observations, "
        "not scaled)",
        SIZE_BUCKETS_NODES,
    ),
    MetricSpec(
        KERNEL_BACKEND, "gauge",
        "most recently resolved traversal kernel backend "
        "(0 = python, 1 = native/numba)",
    ),
    MetricSpec(
        KERNEL_NATIVE_COMPILE_SECONDS, "gauge",
        "one-time native kernel warm-up (JIT compile) wall time",
    ),
    MetricSpec(
        ORACLE_MEMO_HITS_TOTAL, "counter",
        "oracle spread evaluations answered from the memo table",
    ),
    MetricSpec(
        ORACLE_MEMO_MISSES_TOTAL, "counter",
        "oracle spread evaluations that cost a real traversal "
        "(equals the paper's oracle-call count)",
    ),
    MetricSpec(
        ORACLE_MEMO_EVICTIONS_TOTAL, "counter",
        "memo entries evicted (capacity FIFO plus dirty-cone "
        "invalidation)",
    ),
    MetricSpec(
        ORACLE_CONE_SIZE_NODES, "histogram",
        "closed dirty-cone size per delta memo sync",
        SIZE_BUCKETS_NODES,
    ),
    MetricSpec(
        ORACLE_PREFETCHED_SETS_TOTAL, "counter",
        "caller-announced sets evaluated in idle planes of a sweep that "
        "already ran (uncounted until a later miss asks for them)",
    ),
    MetricSpec(
        ORACLE_PREFETCH_SERVED_TOTAL, "counter",
        "oracle misses answered from prefetched values without a sweep "
        "(prefetched minus served is the waste)",
    ),
    MetricSpec(
        EXECUTOR_DISPATCHES_TOTAL, "counter",
        "sharded dispatch rounds issued to the shard threads",
    ),
    MetricSpec(
        EXECUTOR_SHARD_LATENCY_SECONDS, "histogram",
        "per-shard sweep latency on its thread (successful shards)",
        LATENCY_BUCKETS_SECONDS,
    ),
    MetricSpec(
        EXECUTOR_SERIAL_FALLBACKS_TOTAL, "counter",
        "shards recomputed serially on the caller's thread (the shard "
        "raised or timed out)",
    ),
    MetricSpec(
        DEGRADATION_TRANSITIONS_TOTAL, "counter",
        "executor health records (absorbed shard failures and the "
        "move to halted at close)",
    ),
    MetricSpec(
        DEGRADATION_INCIDENTS_TOTAL, "counter",
        "executor faults recorded (absorbed shard failures and the "
        "close)",
    ),
    MetricSpec(
        INGEST_QUEUE_DEPTH, "gauge",
        "batches waiting in the ingest queue",
    ),
    MetricSpec(
        INGEST_EPOCH, "gauge",
        "last committed service epoch",
    ),
    MetricSpec(
        INGEST_EPOCH_LAG, "gauge",
        "accepted-but-uncommitted batches (queued + applying)",
    ),
    MetricSpec(
        INGEST_EPOCH_LAG_BATCHES, "histogram",
        "epoch lag observed as each batch is dequeued",
        LAG_BUCKETS_BATCHES,
    ),
    MetricSpec(
        INGEST_BATCH_APPLY_SECONDS, "histogram",
        "tracker.step + commit time per batch",
        LATENCY_BUCKETS_SECONDS,
    ),
    MetricSpec(
        INGEST_BATCHES_APPLIED_TOTAL, "counter",
        "batches committed by the ingest writer",
    ),
)
