"""Sharded parallel influence engine.

The scaling seam of the library: a shared-memory **CSR plane** mirrors
the graph's delta engine — its compacted base once per compaction, its
arrivals as an append-only log in between (:mod:`repro.parallel.
plane`) — a persistent worker pool shards batched spread / ancestor sweeps
across processes (:mod:`repro.parallel.executor`) under explicit
supervision — dead workers respawn within a restart budget
(:mod:`repro.parallel.supervisor`), degradation is an inspectable,
*recoverable* state machine (:mod:`repro.parallel.degradation`), and a
seeded fault-injection harness drives it all deterministically in the
chaos suite (:mod:`repro.parallel.faults`) — and an asyncio **ingest
service** applies interaction batches with backpressure, journaled writer
recovery and staleness-flagged top-k serving against the last consistent
epoch (:mod:`repro.parallel.service`).

Everything is wired in through ``InfluenceOracle(parallel=...)`` /
``WeightedInfluenceOracle(parallel=...)`` — SieveADN, BasicReduction and
HistApprox inherit the parallel substrate untouched, and the sharded
engine is bit-for-bit equivalent to the serial one (same solutions, same
spread values, same oracle-call counts; pinned by the equivalence suite
and re-pinned under every seeded fault plan by the chaos suite).
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
from repro.parallel.plane import (
    PlaneEngine,
    SharedCSRPlane,
    shared_memory_available,
)
from repro.parallel.service import IngestService, TopKAnswer, WriterDeathError
from repro.parallel.supervisor import WorkerSupervisor

__all__ = [
    "DegradationLadder",
    "DegradationReason",
    "DegradationState",
    "FaultInjected",
    "FaultPlan",
    "IngestService",
    "PlaneEngine",
    "ShardedOracleExecutor",
    "SharedCSRPlane",
    "TopKAnswer",
    "WorkerSupervisor",
    "WriterDeathError",
    "merge_shard_counts",
    "shard_slices",
    "shared_memory_available",
]
