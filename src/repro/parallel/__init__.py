"""Sharded parallel influence engine.

The scaling seam of the library: a thread-pool executor shards batched
spread / ancestor sweeps over per-thread kernel clones of the graph's
CSR engine (:mod:`repro.parallel.executor`), degradation is an
inspectable state machine (:mod:`repro.parallel.degradation`), and a
seeded fault-injection harness drives it deterministically in the chaos
suite (:mod:`repro.parallel.faults`) — and an asyncio **ingest service**
applies interaction batches with backpressure, journaled writer recovery
and staleness-flagged top-k serving against the last consistent epoch
(:mod:`repro.parallel.service`).

Everything is wired in through ``InfluenceOracle(parallel=...)``, under
every semantics — SieveADN, BasicReduction and HistApprox inherit the
parallel substrate untouched, and the sharded
engine is bit-for-bit equivalent to the serial one (same solutions, same
spread values, same oracle-call counts; pinned by the equivalence suite
and re-pinned under seeded shard failures by the chaos suite).
"""

from repro.parallel.degradation import (
    DegradationLadder,
    DegradationReason,
    DegradationState,
)
from repro.parallel.executor import (
    ShardedOracleExecutor,
    merge_shard_counts,
    shard_slices,
)
from repro.parallel.faults import FaultInjected, FaultPlan
from repro.parallel.service import IngestService, TopKAnswer, WriterDeathError

__all__ = [
    "DegradationLadder",
    "DegradationReason",
    "DegradationState",
    "FaultInjected",
    "FaultPlan",
    "IngestService",
    "ShardedOracleExecutor",
    "TopKAnswer",
    "WriterDeathError",
    "merge_shard_counts",
    "shard_slices",
]
