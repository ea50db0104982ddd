"""Worker-process entry point for the sharded oracle executor.

Each worker runs :func:`worker_main` forever: pull a task message off the
shared task queue, run the requested sweep against the shared-memory CSR
plane, push the result.  Task messages are tiny (op name, request id,
shard index, plane generation, arrival-log length, live id-space size,
id lists, horizon) — the graph itself never crosses the pipe.  A worker
maps each generation's base segments once
(:func:`repro.parallel.plane.attach_plane_engine`), keeping the mapping
until the owner's engine compacts and a newer generation appears, and
before every task replays the arrival-log rows it has not applied yet,
up to exactly the length the task names.  A respawned worker starts from
row 0 of the current generation.  Weighted sweeps likewise
map the owner's published weight segment by name
(:func:`repro.parallel.plane.attach_weights`, cached per weights key) and
return 64-wide per-set weight sums instead of shipping reachable-id sets
back through the pipe.

Supervision protocol: before computing, a worker acknowledges each claimed
task with a ``("started", worker_index)`` outcome.  The owner uses the ack
to know *which* shard a worker held when it died — that is what powers
poisoned-task strikes and targeted re-enqueueing instead of whole-request
serial recomputation.  Every result is tagged with the request id and
shard index so the owner can splice shard results back into submission
order, and every failure is reported as an ``("error", message, deltas)``
outcome instead of crashing the worker — the owner decides whether to
retry.  Each shard gets exactly one reply: the worker's drained metric
counter deltas ride inside its ``ok``/``error`` outcome.

Fault injection: an optional :class:`repro.parallel.faults.WorkerFaults`
schedule (shipped pickled from the owner's :class:`FaultPlan`) can drop a
task message, kill the process mid-task, delay a reply, or fail a plane
attach — each hook is a single branch that evaluates to a no-op in
production.  Ordinals are per incarnation: a respawned worker starts a
fresh schedule.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:  # keep the spawn-time import graph minimal
    import numpy as np

    from repro.parallel.faults import WorkerFaults
    from repro.parallel.plane import PlaneEngine, _Attachment, _WeightsAttachment

__all__ = ["worker_main"]

#: Task opcodes (module-level so owner and worker can never drift apart).
OP_SPREAD = "spread"
OP_REACH = "reach"
OP_ANCESTORS = "ancestors"
OP_WSPREAD = "wspread"
OP_FSPREAD = "fspread"
OP_PING = "ping"
OP_STOP = "stop"


def worker_main(
    task_queue: Any,
    result_queue: Any,
    prefix: str,
    worker_index: int = 0,
    faults: Optional["WorkerFaults"] = None,
) -> None:
    """Serve plane sweeps until an ``OP_STOP`` message arrives.

    Args:
        task_queue: multiprocessing queue of task tuples
            ``(op, request_id, shard_index, generation, log_length,
            num_nodes, payload, eff)``: the plane generation, the
            arrival-log rows and the id-space size the owner's graph had
            at dispatch.
            For :data:`OP_WSPREAD` the payload is ``(id_sets, weights_key,
            weights_name, weights_len)``; for :data:`OP_FSPREAD` it is
            ``(id_sets, fold_spec)`` with the fold's ``(name, params)``
            wire form; for the other sweeps it is the id list(s) directly.
        result_queue: queue of ``(request_id, shard_index, outcome)``
            tuples where ``outcome`` is ``("started", worker_index)``
            (claim ack), ``("ok", value, deltas)`` or ``("error",
            message, deltas)``; ``deltas`` maps counter names to the
            increments drained from this worker's registry since its
            previous reply.
        prefix: the shared plane's segment-name prefix.
        worker_index: this worker's stable slot in the pool (respawns
            reuse the slot).
        faults: optional injected fault schedule for this incarnation.
    """
    # Worker-local metrics: a private registry plus the kernel sweep
    # sampler, drained as tiny name->delta dicts after each task and
    # carried inside the task's reply (never per-event traffic).  The
    # owner folds the deltas into its own registry; see
    # ShardedOracleExecutor._dispatch.  Imported here, not at module
    # top, to keep the spawn-time import graph minimal.
    from repro.kernels.instrument import enable_kernel_metrics
    from repro.obs import names as metric_names
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    enable_kernel_metrics(registry=registry)
    tasks_done = registry.counter(metric_names.WORKER_TASKS_TOTAL)

    attachment: Optional[_Attachment] = None  # current generation's mapping
    weight_maps: Dict[str, _WeightsAttachment] = {}
    # A worker only ever needs the keys of currently-live oracles; cap
    # the cache so keys of closed/collected oracles (whose segments the
    # owner already released) cannot accumulate mappings forever.
    max_weight_maps = 8

    def engine_for(generation: int, log_length: int, num_nodes: int) -> PlaneEngine:
        nonlocal attachment
        if attachment is None or attachment.generation != generation:
            from repro.parallel.plane import attach_plane_engine

            if faults is not None and faults.next_attach_fails():
                raise RuntimeError("injected fault: plane attach failed")
            stale, attachment = attachment, None
            if stale is not None:
                stale.detach()
            attachment = attach_plane_engine(prefix, generation)
        return attachment.catch_up(log_length, num_nodes)

    def weights_for(key: str, name: str, length: int) -> "np.ndarray":
        cached = weight_maps.get(key)
        if cached is None or cached.name != name:
            from repro.parallel.plane import attach_weights

            if cached is not None:
                cached.detach()
                del weight_maps[key]
            while len(weight_maps) >= max_weight_maps:
                stale_key = next(iter(weight_maps))  # oldest insertion
                weight_maps.pop(stale_key).detach()
            weight_maps[key] = cached = attach_weights(name, length)
        return cached.weights

    while True:
        task = task_queue.get()
        op = task[0]
        if op == OP_STOP:
            break
        if op == OP_PING:
            result_queue.put((task[1], 0, ("ok", "pong", {})))
            continue
        (
            _,
            request_id,
            shard_index,
            generation,
            log_length,
            num_nodes,
            payload,
            eff,
        ) = task
        delay = 0.0
        if faults is not None:
            ordinal = faults.next_task()
            if faults.should_drop(ordinal):
                continue  # simulate a lost task message: no ack, no reply
            delay = faults.delay_for(ordinal)
        # Claim ack: lets the owner strike exactly the shard we held if
        # this process dies before replying.
        result_queue.put((request_id, shard_index, ("started", worker_index)))
        if faults is not None and faults.should_kill(ordinal):
            # Flush the feeder thread first: the claim ack must reach the
            # owner or the poisoned-task strike cannot be attributed.
            if hasattr(result_queue, "close"):
                result_queue.close()
                result_queue.join_thread()
            os._exit(1)  # simulate a hard crash mid-task (no cleanup)
        try:
            engine = engine_for(generation, log_length, num_nodes)
            value = _run(engine, op, payload, eff, weights_for)
            if delay > 0.0:
                time.sleep(delay)  # simulate a slow shard (past deadline)
            tasks_done.inc()
            outcome = ("ok", value, registry.drain_counter_deltas())
        except BaseException as exc:  # report, never crash the loop
            message = f"{type(exc).__name__}: {exc}"
            outcome = ("error", message, registry.drain_counter_deltas())
        result_queue.put((request_id, shard_index, outcome))
    if attachment is not None:
        attachment.detach()
    for cached in weight_maps.values():
        cached.detach()


def _run(
    engine: PlaneEngine,
    op: str,
    payload: Any,
    eff: Optional[float],
    weights_for: Callable[[str, str, int], "np.ndarray"],
) -> Any:
    if op == OP_SPREAD:
        return engine.spread_counts(payload, eff)
    if op == OP_REACH:
        # Sorted lists pickle smaller and more predictably than sets.
        return [sorted(engine.reachable_ids(ids, eff)) for ids in payload]
    if op == OP_ANCESTORS:
        return sorted(engine.ancestor_ids(payload, eff))
    if op == OP_WSPREAD:
        id_sets, weights_key, weights_name, weights_len = payload
        weights = weights_for(weights_key, weights_name, weights_len)
        return engine.weighted_spread_sums(id_sets, eff, weights)
    if op == OP_FSPREAD:
        from repro.kernels.folds import resolve_fold

        id_sets, fold_spec = payload
        return engine.fold_spread_sums(id_sets, eff, resolve_fold(fold_spec))
    raise ValueError(f"unknown worker op {op!r}")
