"""Sharded parallel influence engine.

The scaling seam of the library: a thread-pool executor shards batched
spread / ancestor sweeps over per-thread kernel clones of the graph's
CSR engine and reports its own health (:mod:`repro.parallel.executor`),
a seeded fault-injection harness fails chosen shards deterministically
in the chaos suite (:mod:`repro.parallel.faults`), and an asyncio
**ingest service** applies interaction batches with backpressure and
serves top-k against the last consistent epoch, flagged stale once a
batch has failed (:mod:`repro.parallel.service`).

Everything is wired in through ``InfluenceOracle(parallel=...)``, under
every semantics — SieveADN, BasicReduction and HistApprox inherit the
parallel substrate untouched, and the sharded
engine is bit-for-bit equivalent to the serial one (same solutions, same
spread values, same oracle-call counts; pinned by the equivalence suite
and re-pinned under seeded shard failures by the chaos suite).
"""

from repro.parallel.executor import (
    ShardedOracleExecutor,
    merge_shard_counts,
    shard_slices,
)
from repro.parallel.faults import FaultInjected, FaultPlan
from repro.parallel.service import IngestService, TopKAnswer

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "IngestService",
    "ShardedOracleExecutor",
    "TopKAnswer",
    "merge_shard_counts",
    "shard_slices",
]
