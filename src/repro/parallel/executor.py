"""Sharded oracle executor: a supervised worker pool over the CSR plane.

:class:`ShardedOracleExecutor` partitions the oracle's batched sweeps —
``spread_many`` bit-plane batches, the weighted oracle's 64-wide weighted
bit-plane sums (dense weights ride a published shared-memory weight
array; weight *callables* stay in-process via per-set reachable-id
evaluations), and the ``ancestor_ids`` / ``touched_cone_ids`` reverse
sweeps behind memo eviction — across a pool of long-lived worker
processes that all map the same shared-memory CSR plane
(:mod:`repro.parallel.plane`).

Correctness contract
--------------------
Sharding is *value-transparent*: per-set spread counts are independent, so
splitting a batch across workers and splicing the per-shard results back
in submission order reproduces the serial output exactly; and reachability
distributes over seed union (``ancestors(A | B) = ancestors(A) |
ancestors(B)``), so shard-merged ancestor sweeps equal the single sweep.
Every recovery path preserves this: a shard the pool cannot answer —
worker died, errored, missed its deadline, task quarantined — is
recomputed serially *for that shard only* through the same
:class:`~repro.kernels.TraversalKernel` physics, so a request never
observes a partial or divergent answer no matter what failed under it.
Oracle *call accounting* lives entirely in the oracle layer and is never
touched here.  The equivalence suite pins all three trackers to
bit-identical solutions, values and call counts under ``workers=2``; the
chaos suite (:mod:`tests.parallel.test_faults`) pins the same bar under
seeded fault plans.

Supervision and degradation
---------------------------
Worker liveness is checked on every dispatch round-trip.  Dead workers
are respawned by a :class:`~repro.parallel.supervisor.WorkerSupervisor`
under a bounded restart budget with jittered exponential backoff; a task
that kills two workers is quarantined (serial forever, never retried into
the pool).  Pool-level failures move an explicit
:class:`~repro.parallel.degradation.DegradationLadder` through
``SHARDED → DEGRADED → SHARDED`` (recoverable reasons: publish failure,
pool startup failure, total worker loss) or ``→ HALTED`` (terminal: no
shared memory, restart budget exhausted, closed).  The whole machine is
inspectable via :meth:`ShardedOracleExecutor.health_report`.

Lifecycle
---------
The pool and plane are created lazily on the first parallel-eligible
request and torn down by :meth:`close` (also registered via
``weakref.finalize`` over the supervisor's *live* process table, so an
abandoned executor cannot leak segments or processes — including
respawned ones).  The plane mirrors the graph's delta engine
(:meth:`ensure_plane`): its compacted base is copied into a new plane
generation once per compaction, and each graph version in between costs
only an append of its arrivals to the generation's shared-memory log.
Every task names the generation, log length and id-space size it was
dispatched at, and workers replay the log up to exactly that point.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.kernels import TraversalKernel
    from repro.tdn.graph import TDNGraph

from repro.kernels import Fold, resolve_backend, resolve_fold
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel import worker as worker_mod
from repro.parallel.degradation import DegradationLadder, DegradationReason
from repro.parallel.faults import FaultInjected, FaultPlan
from repro.parallel.plane import (
    SharedCSRPlane,
    SharedWeights,
    shared_memory_available,
    weights_segment_name,
)
from repro.parallel.supervisor import QUARANTINE_STRIKES, WorkerSupervisor

__all__ = [
    "EXECUTOR_MODES",
    "ShardedOracleExecutor",
    "merge_shard_counts",
    "shard_slices",
]

#: Accepted worker dispatch modes.  ``"processes"`` is the shared-memory
#: pool described above; ``"threads"`` shards over an in-process
#: ``ThreadPoolExecutor`` (profitable only when the jitted native kernel
#: releases the GIL); ``"auto"`` picks threads exactly when the resolved
#: kernel backend is native, processes otherwise.
EXECUTOR_MODES = ("processes", "threads", "auto")

#: Default per-request floor below which dispatch is not worth the IPC.
DEFAULT_MIN_BATCH = 8

#: Default seed-count floor for sharding *reverse* sweeps.  Much higher
#: than the forward floor: every worker must lazily build the base
#: transpose (O(P log P)) once per generation before its first reverse
#: BFS, and per-epoch dirty-cone syncs journal only a handful of seeds —
#: sharding those would spend N transpose builds to split a sweep the
#: serial engine finishes in one.  Only genuinely wide seed sets clear
#: this bar.
DEFAULT_ANCESTOR_MIN_BATCH = 64

#: Default seconds without *any* shard result before declaring the pool
#: wedged — the last-ditch watchdog behind the per-task deadlines.  The
#: clock restarts on every received result, so a request making steady
#: progress never trips it; raise the bound (constructor or
#: ``REPRO_RESULT_TIMEOUT``) for graphs whose single-shard sweeps
#: legitimately run longer than this.
RESULT_TIMEOUT = 60.0

#: Default per-task deadline in seconds: a shard with no reply by then is
#: retried once on the (healthy) pool, then recomputed serially for that
#: task only.  Override via constructor or ``REPRO_TASK_TIMEOUT``.
TASK_TIMEOUT = 30.0

#: Result-queue poll interval while shards are outstanding; every poll is
#: also a liveness round-trip over the worker table.
_POLL_INTERVAL = 0.05

# Owner-side instruments, bound once at import.  Worker-side counters
# arrive as {name: delta} dicts inside each shard's ok/error outcome and
# are folded into the same process registry (see _dispatch).
_DISPATCHES = metrics_registry().counter(metric_names.EXECUTOR_DISPATCHES_TOTAL)
_SHARD_LATENCY = metrics_registry().histogram(
    metric_names.EXECUTOR_SHARD_LATENCY_SECONDS
)
_SERIAL_FALLBACKS = metrics_registry().counter(
    metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL
)


def shard_slices(num_items: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` slices covering ``num_items``.

    Pure so the hypothesis shard-merge property can drive it directly:
    the slices are disjoint, ordered, cover every item exactly once, and
    sizes differ by at most one.  Empty slices are dropped.
    """
    if num_items <= 0 or num_shards <= 0:
        return []
    num_shards = min(num_shards, num_items)
    base, extra = divmod(num_items, num_shards)
    slices = []
    start = 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def merge_shard_counts(
    slices: Sequence[Tuple[int, int]],
    shard_results: Sequence[Sequence],
    total: int,
) -> List:
    """Splice per-shard result lists back into submission order."""
    merged: List = [None] * total
    for (start, stop), counts in zip(slices, shard_results):
        if len(counts) != stop - start:
            raise ValueError(
                f"shard [{start}, {stop}) returned {len(counts)} results"
            )
        merged[start:stop] = counts
    return merged


class ShardedOracleExecutor:
    """Partition batched oracle sweeps across a supervised worker pool.

    Args:
        workers: worker count.  ``<= 1`` means serial (no pool, no shared
            memory; the executor is then a thin pass-through to the
            graph's own engine).
        mode: ``"processes"`` | ``"threads"`` | ``"auto"`` (default).
            Thread mode shards sweeps across a ``ThreadPoolExecutor``
            over per-thread kernel clones of the *same* in-process
            arrays — no spawn, no shared-memory plane, no pickling —
            which only beats serial when the jitted native kernel
            releases the GIL; ``"auto"`` therefore resolves to threads
            exactly when :func:`repro.kernels.resolve_backend` lands on
            ``"native"``, and to the process pool otherwise.
        min_batch: smallest batch dispatched to the pool; smaller requests
            are served serially (values are identical either way).
        ancestor_min_batch: separate, higher floor for reverse
            (ancestor / dirty-cone) sweeps — sharding those makes every
            worker build the plane transpose first, which only pays off
            for wide seed sets.
        result_timeout: whole-request no-progress watchdog (seconds).
        task_timeout: per-shard deadline (seconds): timeout → one retry
            on the pool → serial fallback for that shard only.
        restart_budget: total worker respawns allowed before the executor
            degrades permanently (see :class:`WorkerSupervisor`).
        mp_context: multiprocessing start method (``"spawn"`` default:
            safe under threads and asyncio; ``"fork"`` starts faster).
            Override via ``REPRO_MP_CONTEXT`` as well.
        plane_prefix: shared-memory segment name prefix (random default).
        fault_plan: injected fault schedule (chaos tests); defaults to
            :meth:`FaultPlan.from_env` (``REPRO_FAULTS``), i.e. no faults.
        supervisor_seed: backoff-jitter seed; the fault plan's ``seed``
            is used when unset, so chaos runs are fully replayable.
    """

    def __init__(
        self,
        workers: int,
        *,
        mode: str = "auto",
        min_batch: int = DEFAULT_MIN_BATCH,
        ancestor_min_batch: int = DEFAULT_ANCESTOR_MIN_BATCH,
        result_timeout: Optional[float] = None,
        task_timeout: Optional[float] = None,
        restart_budget: Optional[int] = None,
        mp_context: Optional[str] = None,
        plane_prefix: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervisor_seed: Optional[int] = None,
    ) -> None:
        # The ladder exists before any validation so close() is safe even
        # on a half-constructed instance.
        self._ladder = DegradationLadder()
        self._supervisor: Optional[WorkerSupervisor] = None
        self._plane: Optional[SharedCSRPlane] = None
        self._task_queue: Any = None
        self._result_queue: Any = None
        self._ctx: Any = None
        self._finalizer = weakref.finalize(self, _noop)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if mode not in EXECUTOR_MODES:
            raise ValueError(
                f"mode must be one of {EXECUTOR_MODES}, got {mode!r}"
            )
        self.workers = workers
        self.mode = mode
        # Resolved lazily: "auto" consults the kernel backend, and that
        # probe pays the one-time JIT warm-up — not a constructor cost.
        self._mode_resolved: Optional[str] = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._thread_clone_cache: Dict[
            bool, Tuple[weakref.ref, int, List["TraversalKernel"]]
        ] = {}
        self.min_batch = max(1, min_batch)
        self.ancestor_min_batch = max(1, ancestor_min_batch)
        if result_timeout is None:
            result_timeout = float(
                os.environ.get("REPRO_RESULT_TIMEOUT", RESULT_TIMEOUT)
            )
        self.result_timeout = max(1.0, result_timeout)
        if task_timeout is None:
            task_timeout = float(os.environ.get("REPRO_TASK_TIMEOUT", TASK_TIMEOUT))
        self.task_timeout = max(0.05, task_timeout)
        self._restart_budget = restart_budget
        self._mp_method = mp_context or os.environ.get("REPRO_MP_CONTEXT", "spawn")
        self._plane_prefix = plane_prefix
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        if supervisor_seed is None and self._fault_plan is not None:
            supervisor_seed = self._fault_plan.seed
        self._supervisor_seed = supervisor_seed
        # Published weight arrays, keyed by the caller's weights key.  The
        # dict object itself is shared with the GC finalizer, so segments
        # registered after pool startup still get unlinked on teardown.
        # Segment names are derived from a short monotone sequence, not
        # from key + length: macOS caps POSIX shm names at 31 characters,
        # which a '{prefix}-{key}-{length}' name would blow through.
        self._weights: Dict[str, SharedWeights] = {}
        self._weights_seq = 0
        self._weights_disabled: Optional[str] = None
        self._started = False
        # The graph the plane mirrors: a weakref (not id()) keeps graph
        # identity honest — CPython reuses id()s after collection, and a
        # stale plane served for a look-alike graph would be silently
        # wrong.  Within one graph the plane tracks the engine's base.
        self._published_graph: Optional[weakref.ref] = None
        self._request_seq = 0

    # ------------------------------------------------------------------
    # Health surface
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> Optional[str]:
        """Legacy one-line view: None while sharded, else the reason."""
        if self._ladder.healthy:
            return None
        reason = self._ladder.reason
        text = reason.value if reason is not None else "degraded"
        detail = self._ladder.detail
        return f"{text}: {detail}" if detail else text

    @property
    def parallel_available(self) -> bool:
        """Whether requests can currently be served by the pool."""
        return self.workers > 1 and self._ladder.healthy

    @property
    def pool_running(self) -> bool:
        """Whether worker processes are actually up (pool started, live)."""
        return bool(self._procs) and self._ladder.healthy

    @property
    def _procs(self) -> List[Any]:
        """The live worker processes (current incarnations)."""
        if self._supervisor is None:
            return []
        return [proc for _, proc in sorted(self._supervisor.procs.items())]

    def health_report(self) -> Dict[str, object]:
        """Inspectable snapshot of the whole degradation machine.

        Keys: ``state`` / ``reason`` / ``detail`` / ``recoveries`` /
        ``incidents`` / ``transitions`` (from the ladder), ``workers``,
        ``mode`` (the resolved dispatch mode, or the requested ``"auto"``
        until the first query resolves it), ``pool`` (supervisor
        liveness, restart budget, quarantine count; None before first
        use), ``plane_generation`` (base publishes so far: one per
        compaction of the mirrored engine, plus one per log overflow or
        re-mirror) and ``weights_disabled``.
        """
        report = self._ladder.report()
        report["workers"] = self.workers
        report["mode"] = self._mode_resolved or self.mode
        report["pool"] = (
            self._supervisor.report() if self._supervisor is not None else None
        )
        report["plane_generation"] = (
            self._plane.generation if self._plane is not None else None
        )
        report["weights_disabled"] = self._weights_disabled
        return report

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> bool:
        """Start (or recover) plane + workers; returns pool usability."""
        if self._ladder.halted:
            return False
        if not self._started:
            self._started = True
            if self.workers <= 1:
                self._ladder.degrade(DegradationReason.SINGLE_WORKER)
                return False
            if not shared_memory_available():
                self._ladder.degrade(DegradationReason.NO_SHM)
                return False
            return self._start_pool()
        if self._ladder.healthy:
            return self._supervisor is not None
        if self._ladder.can_attempt_recovery():
            return self._attempt_recovery()
        return False

    def _start_pool(self) -> bool:
        """Create plane, queues and supervised workers; arm the finalizer."""
        import multiprocessing

        try:
            ctx = multiprocessing.get_context(self._mp_method)
            self._ctx = ctx
            self._plane = SharedCSRPlane(self._plane_prefix)
            self._task_queue = ctx.Queue()
            self._result_queue = ctx.Queue()
            prefix = self._plane.prefix
            plan = self._fault_plan

            def spawn(index: int) -> Any:
                # Queues are read at spawn time, not captured: the
                # supervisor's reset hook replaces them on pool recycle.
                proc = ctx.Process(
                    target=worker_mod.worker_main,
                    args=(
                        self._task_queue,
                        self._result_queue,
                        prefix,
                        index,
                        plan.for_worker(index) if plan is not None else None,
                    ),
                    daemon=True,
                )
                proc.start()
                return proc

            kwargs: Dict[str, Any] = {"seed": self._supervisor_seed}
            if self._restart_budget is not None:
                kwargs["restart_budget"] = self._restart_budget
            self._supervisor = WorkerSupervisor(
                spawn, self.workers, reset=self._reset_queues, **kwargs
            )
            self._supervisor.start()
        except Exception as exc:  # pragma: no cover - depends on host
            self._ladder.degrade(
                DegradationReason.POOL_START_FAILED, str(exc), retry_delay=0.5
            )
            self._release_pool_resources()
            return False
        self._arm_finalizer()
        return True

    def _arm_finalizer(self) -> None:
        """(Re)register GC teardown over the current plane and queue set.

        The supervisor's procs dict is shared by reference, so respawned
        workers are always visible to the finalizer; the queues are *not*
        — they are replaced on pool recycle, hence the re-arm from
        :meth:`_reset_queues`.
        """
        assert self._supervisor is not None
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self,
            _teardown,
            self._plane,
            self._task_queue,
            self._supervisor.procs,
            self.workers,
            self._weights,
        )

    def _reset_queues(self) -> None:
        """Replace the queue set (the supervisor's pool-recycle hook).

        A worker that dies blocked inside ``Queue.get()`` dies holding
        the queue's shared reader lock, wedging it for every future
        reader — only a fresh queue set is guaranteed usable by the
        respawned pool.
        """
        for stale in (self._task_queue, self._result_queue):
            if stale is None:
                continue
            try:
                stale.close()
                stale.cancel_join_thread()
            except Exception:  # repro-lint: disable=RPL304
                pass  # a broken queue is already as released as it gets
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        if self._supervisor is not None:
            self._arm_finalizer()

    def _attempt_recovery(self) -> bool:
        """Try to return a DEGRADED executor to SHARDED."""
        if self._supervisor is None or self._plane is None:
            # Pool infrastructure was released (startup failure): rebuild.
            if self._start_pool():
                self._ladder.recover("pool restarted")
                return True
            return False
        outcome = self._supervisor.respawn_dead()
        if outcome == "exhausted":
            self._halt(
                DegradationReason.RESTART_BUDGET_EXHAUSTED,
                f"{self._supervisor.restarts_used} restarts used",
            )
            return False
        if outcome == "waiting":
            return False
        # Workers are up again (or never all died, e.g. after a publish
        # failure); recover optimistically — the next dispatch verifies.
        self._ladder.recover("worker pool healthy again")
        return True

    def _halt(self, reason: DegradationReason, detail: str = "") -> None:
        """Terminal degradation: record it and release every resource."""
        self._ladder.degrade(reason, detail)
        self._release_pool_resources()

    def _release_pool_resources(self) -> None:
        """Tear down pool infrastructure (idempotent, never raises)."""
        self._finalizer.detach()
        procs = self._supervisor.procs if self._supervisor is not None else {}
        _teardown(self._plane, self._task_queue, procs, self.workers, self._weights)
        self._plane = None
        self._task_queue = None
        self._result_queue = None
        self._supervisor = None
        self._weights = {}
        self._published_graph = None
        self._finalizer = weakref.finalize(self, _noop)

    def close(self) -> None:
        """Stop the workers and unlink the plane (idempotent, crash-safe).

        Safe to call twice, after a failed ``__init__``, and concurrently
        with the GC finalizer — the finalizer is detached before teardown
        runs, and every teardown step tolerates already-released state.
        """
        if not hasattr(self, "_ladder"):  # __init__ died before any state
            return
        if getattr(self, "_thread_pool", None) is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        self._thread_clone_cache = {}
        self._release_pool_resources()
        self._ladder.degrade(DegradationReason.CLOSED)
        self._started = True

    # ------------------------------------------------------------------
    # Plane publication
    # ------------------------------------------------------------------
    def ensure_plane(self, graph: "TDNGraph") -> bool:
        """Bring the plane up to ``graph``'s current state.

        Returns whether the plane is usable.  ``graph.csr()`` runs first,
        so the engine has compacted if it is due.  While the engine keeps
        the base the plane already holds, only the arrivals since the
        last call are appended to the generation's log (O(new edges)).
        A new generation — a copy of the engine's existing base arrays
        and log — is published only when the base changed, the graph is
        not the mirrored one, or the log would overflow.  A failed
        publish degrades *recoverably*: nothing is marked current, so the
        next eligible request retries the publish and recovers to
        sharded mode when it succeeds.
        """
        if not self._ensure_pool():
            return False
        assert self._plane is not None
        engine = graph.csr()
        if (
            self._published_graph is not None
            and self._published_graph() is graph
            and self._plane.append(engine)
        ):
            return True
        try:
            if self._fault_plan is not None and self._fault_plan.next_publish_fails():
                raise FaultInjected("injected fault: plane publish failed")
            self._plane.publish(engine)
        except (OSError, FaultInjected) as exc:
            self._published_graph = None
            self._ladder.degrade(
                DegradationReason.PUBLISH_FAILED, str(exc), retry_delay=0.05
            )
            return False
        self._published_graph = weakref.ref(graph)
        return True

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _task_key(op: str, payload: Any, eff: float) -> Hashable:
        """Stable identity for quarantine strikes (survives retries)."""
        return (op, repr(payload), eff)

    def _dispatch(
        self,
        op: str,
        shards: Sequence[Tuple[Any, float]],
        serial_shard: Callable[[int], Any],
    ) -> List[Any]:
        """Send one task per shard; gather a *complete* result list.

        Unlike the pre-supervision executor this never returns ``None``:
        any shard the pool fails to answer — quarantined task, worker
        death past the restart backoff, reported error after one retry,
        missed deadline after one retry — is recomputed serially via
        ``serial_shard`` (the same kernel physics), so the caller always
        receives exact, complete results.  Worker deaths strike the
        claimed task and trigger supervised respawn; budget exhaustion is
        the only path that degrades terminally.
        """
        assert self._supervisor is not None and self._plane is not None
        supervisor = self._supervisor
        self._request_seq += 1
        request_id = self._request_seq
        # The plane state every shard of this request is answered at.
        plane = self._plane
        state = (plane.generation, plane.log_length, plane.num_nodes)
        total = len(shards)
        _DISPATCHES.inc()
        results: List[Any] = [None] * total
        filled = [False] * total
        keys = [self._task_key(op, payload, eff) for payload, eff in shards]
        outstanding: Set[int] = set()
        now = time.monotonic()
        deadlines: Dict[int, float] = {}
        retries: Dict[int, int] = {}
        claimed: Dict[int, int] = {}  # shard -> worker index holding it
        sent: Dict[int, float] = {}  # shard -> enqueue time (latency)

        def enqueue(shard_index: int) -> None:
            payload, eff = shards[shard_index]
            self._task_queue.put((op, request_id, shard_index, *state, payload, eff))
            sent[shard_index] = time.monotonic()
            deadlines[shard_index] = sent[shard_index] + self.task_timeout

        def fill_serial(shard_index: int) -> None:
            _SERIAL_FALLBACKS.inc()
            results[shard_index] = serial_shard(shard_index)
            filled[shard_index] = True
            outstanding.discard(shard_index)
            claimed.pop(shard_index, None)

        for index in range(total):
            if supervisor.is_quarantined(keys[index]):
                fill_serial(index)  # flagged poison: never re-enters the pool
            else:
                outstanding.add(index)
                retries[index] = 0
                enqueue(index)
        had_death = False
        global_deadline = now + self.result_timeout
        while outstanding:
            try:
                got_id, shard_index, outcome = self._result_queue.get(
                    timeout=_POLL_INTERVAL
                )
            except queue_mod.Empty:
                got_id = None
            if got_id is not None:
                status, value = outcome[0], outcome[1]
                if status != "started" and outcome[2]:
                    # Worker-drained counter deltas ride in the reply.
                    # Merged before the stale-request check: a drain
                    # advances the worker's high-water marks, so a
                    # dropped reply would lose those counts forever.
                    metrics_registry().merge_counter_deltas(outcome[2])
                if got_id != request_id or shard_index >= total:
                    continue  # stale result from an abandoned request
                if status == "started":
                    if not filled[shard_index]:
                        claimed[shard_index] = int(value)
                    continue
                if filled[shard_index]:
                    continue  # late first attempt after a retry already won
                if status == "ok":
                    results[shard_index] = value
                    filled[shard_index] = True
                    outstanding.discard(shard_index)
                    claimed.pop(shard_index, None)
                    received = time.monotonic()
                    sent_at = sent.get(shard_index)
                    if sent_at is not None:
                        _SHARD_LATENCY.observe(received - sent_at)
                    global_deadline = received + self.result_timeout
                    continue
                # Worker reported an error: one pool retry, then serial.
                reason = (
                    DegradationReason.ATTACH_TIMEOUT
                    if "attach" in str(value) or "generation skew" in str(value)
                    else DegradationReason.WORKER_ERROR
                )
                claimed.pop(shard_index, None)
                if retries[shard_index] < 1:
                    retries[shard_index] += 1
                    enqueue(shard_index)
                else:
                    fill_serial(shard_index)
                    self._ladder.note_incident(reason, str(value))
                continue
            # No result this poll: liveness + deadline round-trip.
            now = time.monotonic()
            dead = supervisor.dead_workers()
            if dead:
                had_death = True
                dead_set = set(dead)
                struck = [
                    s for s in sorted(outstanding) if claimed.get(s) in dead_set
                ]
                for index in struck:
                    strikes = supervisor.strike(keys[index])
                    claimed.pop(index, None)
                    if strikes >= QUARANTINE_STRIKES:
                        fill_serial(index)
                        self._ladder.note_incident(
                            DegradationReason.WORKER_DEATH,
                            f"task quarantined after {strikes} worker deaths",
                        )
                outcome_str = supervisor.respawn_dead(now)
                if outcome_str == "exhausted":
                    for index in sorted(outstanding):
                        fill_serial(index)
                    self._halt(
                        DegradationReason.RESTART_BUDGET_EXHAUSTED,
                        f"{supervisor.restarts_used} restarts used",
                    )
                    return results
                if outcome_str == "ok":
                    self._ladder.note_incident(
                        DegradationReason.WORKER_DEATH,
                        f"respawned worker(s) {dead}",
                    )
                    # The pool was recycled onto fresh queues: every
                    # outstanding task (and any in-flight result) lived
                    # on the old set, so re-enqueue the lot.
                    claimed.clear()
                    for index in sorted(outstanding):
                        enqueue(index)
                    global_deadline = time.monotonic() + self.result_timeout
                elif not any(p.is_alive() for p in supervisor.procs.values()):
                    # Whole pool down and the respawn backoff is pending:
                    # answer this request serially and mark the executor
                    # DEGRADED so later requests skip dispatch until the
                    # supervisor may respawn (recovery in _ensure_pool).
                    for index in sorted(outstanding):
                        fill_serial(index)
                    self._ladder.degrade(
                        DegradationReason.WORKER_DEATH,
                        "all workers dead; respawn backoff pending",
                        retry_delay=_POLL_INTERVAL,
                    )
                    return results
                else:
                    # Backoff pending but survivors remain: hand the
                    # shards the dead consumed back to the old queue.
                    for index in struck:
                        if index in outstanding:
                            enqueue(index)
            for index in sorted(outstanding):
                if now > deadlines[index]:
                    if retries[index] < 1:
                        retries[index] += 1
                        claimed.pop(index, None)
                        enqueue(index)
                    else:
                        fill_serial(index)
                        self._ladder.note_incident(
                            DegradationReason.TASK_TIMEOUT,
                            f"shard exceeded {self.task_timeout:.2f}s twice",
                        )
            if now > global_deadline:
                # Alive but wedged (stuck attach, lost message): answer
                # serially rather than hang the owner; recoverable.
                for index in sorted(outstanding):
                    fill_serial(index)
                self._ladder.degrade(
                    DegradationReason.TASK_TIMEOUT,
                    f"no worker result within {self.result_timeout:.0f}s "
                    "(raise result_timeout / REPRO_RESULT_TIMEOUT for "
                    "legitimately long sweeps)",
                    retry_delay=1.0,
                )
                return results
        if not had_death:
            supervisor.note_success()
        return results

    @staticmethod
    def _effective_horizon(graph: "TDNGraph", min_expiry: Optional[float]) -> float:
        """The serial engine's ``t + 1`` clamp, resolved owner-side."""
        floor = float(graph.time + 1)
        if min_expiry is None or min_expiry < floor:
            return floor
        return min_expiry

    def _parallel_ready(self, graph: "TDNGraph", batch_size: int) -> bool:
        return (
            self.workers > 1
            and batch_size >= self.min_batch
            and self.ensure_plane(graph)
        )

    # ------------------------------------------------------------------
    # Thread-mode dispatch (the native backend's degradation-ladder rung)
    # ------------------------------------------------------------------
    def _resolve_mode(self) -> str:
        """The dispatch mode actually in force (cached after first use)."""
        if self._mode_resolved is None:
            if self.mode == "auto":
                self._mode_resolved = (
                    "threads"
                    if resolve_backend(None) == "native"
                    else "processes"
                )
            else:
                self._mode_resolved = self.mode
        return self._mode_resolved

    def _threads_ready(self, batch_size: int) -> bool:
        """Whether this request should shard over the in-process pool."""
        if self._resolve_mode() != "threads" or batch_size < self.min_batch:
            return False
        if self._ladder.halted:
            return False
        if self.workers <= 1:
            if not self._started:
                self._started = True
                self._ladder.degrade(DegradationReason.SINGLE_WORKER)
            return False
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
            self._started = True
        return True

    def _thread_kernels(
        self, graph: "TDNGraph", reverse: bool
    ) -> List["TraversalKernel"]:
        """Per-thread kernel clones of ``graph``'s current engine epoch.

        Clones share the engine's (query-immutable) CSR arrays, overlay
        and resolved backend but own their visited buffers, so
        concurrent sweeps cannot trample each other.  The cache is keyed
        on graph identity (a weakref, same honesty argument as the
        published-plane stamp) plus version: any mutation invalidates
        it, and ``graph.csr()`` runs first so compaction has already
        happened when the clones are cut.  For reverse sweeps the
        transpose is built once, owner-side, and shared by every clone —
        unlike process workers, which each rebuild it per generation.
        """
        engine = graph.csr()
        cached = self._thread_clone_cache.get(reverse)
        if cached is not None:
            graph_ref, version, clones = cached
            if (
                graph_ref() is graph
                and version == graph.version
                and len(clones) >= self.workers
            ):
                return clones
        clones = [engine.kernel_clone(reverse) for _ in range(self.workers)]
        self._thread_clone_cache[reverse] = (
            weakref.ref(graph),
            graph.version,
            clones,
        )
        return clones

    @staticmethod
    def _timed_shard(
        run_shard: Callable[[int], Any], index: int
    ) -> Tuple[Any, float]:
        started = time.monotonic()
        return run_shard(index), time.monotonic() - started

    def _dispatch_threads(
        self,
        num_shards: int,
        run_shard: Callable[[int], Any],
        serial_shard: Callable[[int], Any],
    ) -> List[Any]:
        """Fan shards out over the in-process thread pool.

        The jitted fixpoints run with the GIL released, so shards
        genuinely overlap on separate cores; there is no pickling, no
        plane publish and no liveness protocol — threads cannot die
        without the whole process dying.  The one remaining failure
        mode, a shard raising (or missing the whole-request deadline),
        is recomputed serially through the same kernel physics and
        counted as a THREAD_ERROR incident, so the caller always
        receives exact, complete results.
        """
        assert self._thread_pool is not None
        _DISPATCHES.inc()
        futures = [
            self._thread_pool.submit(self._timed_shard, run_shard, index)
            for index in range(num_shards)
        ]
        results: List[Any] = []
        for index, future in enumerate(futures):
            try:
                value, elapsed = future.result(timeout=self.result_timeout)
                _SHARD_LATENCY.observe(elapsed)
            except Exception as exc:
                _SERIAL_FALLBACKS.inc()
                self._ladder.note_incident(
                    DegradationReason.THREAD_ERROR,
                    f"{type(exc).__name__}: {exc}",
                )
                value = serial_shard(index)
            results.append(value)
        return results

    # ------------------------------------------------------------------
    # Query API (mirrors the serial DeltaCSR surface)
    # ------------------------------------------------------------------
    def spread_counts(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
    ) -> List[int]:
        """Per-set reachable counts; sharded when profitable, exact always."""
        if not id_sets:
            return []
        if self._threads_ready(len(id_sets)):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(id_sets), self.workers)
            clones = self._thread_kernels(graph, reverse=False)
            results = self._dispatch_threads(
                len(slices),
                lambda i: clones[i].spread_counts(
                    list(id_sets[slices[i][0] : slices[i][1]]), eff
                ),
                lambda i: graph.csr().spread_counts(
                    list(id_sets[slices[i][0] : slices[i][1]]), min_expiry
                ),
            )
            return merge_shard_counts(slices, results, len(id_sets))
        if self._parallel_ready(graph, len(id_sets)):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(id_sets), self.workers)
            shards = [(list(id_sets[start:stop]), eff) for start, stop in slices]
            results = self._dispatch(
                worker_mod.OP_SPREAD,
                shards,
                lambda i: graph.csr().spread_counts(
                    list(id_sets[slices[i][0] : slices[i][1]]), min_expiry
                ),
            )
            return merge_shard_counts(slices, results, len(id_sets))
        return graph.csr().spread_counts(id_sets, min_expiry)

    def reachable_ids_many(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
    ) -> List[Set[int]]:
        """Per-set reachable id sets (weighted oracle's batch evaluation)."""
        if not id_sets:
            return []
        if self._threads_ready(len(id_sets)):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(id_sets), self.workers)
            clones = self._thread_kernels(graph, reverse=False)
            results = self._dispatch_threads(
                len(slices),
                lambda i: [
                    clones[i].reachable_ids(ids, eff)
                    for ids in id_sets[slices[i][0] : slices[i][1]]
                ],
                lambda i: [
                    graph.csr().reachable_ids(ids, min_expiry)
                    for ids in id_sets[slices[i][0] : slices[i][1]]
                ],
            )
            return merge_shard_counts(slices, results, len(id_sets))
        if self._parallel_ready(graph, len(id_sets)):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(id_sets), self.workers)
            shards = [(list(id_sets[start:stop]), eff) for start, stop in slices]

            def serial_shard(i: int) -> List[List[int]]:
                engine = graph.csr()
                start, stop = slices[i]
                return [
                    sorted(engine.reachable_ids(ids, min_expiry))
                    for ids in id_sets[start:stop]
                ]

            results = self._dispatch(worker_mod.OP_REACH, shards, serial_shard)
            merged = merge_shard_counts(slices, results, len(id_sets))
            return [set(ids) for ids in merged]
        engine = graph.csr()
        return [engine.reachable_ids(ids, min_expiry) for ids in id_sets]

    def _ensure_weights(
        self, weights_key: str, weights: "np.ndarray"
    ) -> Optional[SharedWeights]:
        """Publish ``weights`` under ``weights_key`` if the copy is stale.

        The dense weight array is append-only (its prefix never changes),
        so its length *is* its epoch: republication happens only when the
        array grew since the last publish for this key.  A publish
        failure disables only the *weighted* parallel path (one warning;
        callers evaluate serially, never with partial state) — unweighted
        sharding keeps working, so a host quirk in one segment family
        cannot poison the whole executor.
        """
        if self._weights_disabled is not None:
            return None
        assert self._plane is not None
        record = self._weights.get(weights_key)
        if record is not None and record.length == int(weights.shape[0]):
            return record
        self._weights_seq += 1
        name = weights_segment_name(self._plane.prefix, self._weights_seq)
        try:
            fresh = SharedWeights(name, weights)
        except OSError as exc:
            self._weights_disabled = str(exc)
            warnings.warn(
                f"weights publish failed ({exc}); weighted evaluation "
                "running serially (unweighted sharding unaffected)",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        if record is not None:
            record.close()
        self._weights[weights_key] = fresh
        return fresh

    def release_weights(self, weights_key: str) -> None:
        """Unlink the weight segment published under ``weights_key``.

        Called by a :class:`~repro.influence.weighted.
        WeightedInfluenceOracle` when it is closed or collected, so a
        long-lived shared executor serving many short-lived weighted
        oracles does not accumulate one O(V) segment per oracle until
        teardown.  Safe to call for keys never published (no-op); a
        worker still holding the stale mapping keeps it valid until it
        re-attaches, exactly as with superseded plane generations.
        """
        record = self._weights.pop(weights_key, None)
        if record is not None:
            record.close()

    def weighted_spread_sums(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
        *,
        weights: "np.ndarray",
        weights_key: str,
    ) -> List[float]:
        """Per-set reached-weight sums; sharded when profitable, exact always.

        ``weights`` is the oracle's dense id-indexed float64 array and
        ``weights_key`` a stable per-oracle token; the array is published
        into shared memory once per weights epoch (see
        :meth:`_ensure_weights`) and workers fold it over their shard's
        bit-plane sweeps, returning 64-wide weight sums — per-set float
        lists — instead of whole reachable-id sets.  The kernel's
        canonical ascending-id summation makes shard results bit-identical
        to the serial engine's.
        """
        if not id_sets:
            return []
        if self._threads_ready(len(id_sets)):
            # Threads read the owner's dense array directly — no shared
            # memory publish, so the weights-disabled latch never applies.
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(id_sets), self.workers)
            clones = self._thread_kernels(graph, reverse=False)
            results = self._dispatch_threads(
                len(slices),
                lambda i: clones[i].weighted_spread_sums(
                    list(id_sets[slices[i][0] : slices[i][1]]), eff, weights
                ),
                lambda i: graph.csr().weighted_spread_sums(
                    list(id_sets[slices[i][0] : slices[i][1]]),
                    min_expiry,
                    weights,
                ),
            )
            return merge_shard_counts(slices, results, len(id_sets))
        if self._parallel_ready(graph, len(id_sets)):
            record = self._ensure_weights(weights_key, weights)
            if record is not None:
                eff = self._effective_horizon(graph, min_expiry)
                slices = shard_slices(len(id_sets), self.workers)
                shards = [
                    (
                        (
                            list(id_sets[start:stop]),
                            weights_key,
                            record.name,
                            record.length,
                        ),
                        eff,
                    )
                    for start, stop in slices
                ]
                results = self._dispatch(
                    worker_mod.OP_WSPREAD,
                    shards,
                    lambda i: graph.csr().weighted_spread_sums(
                        list(id_sets[slices[i][0] : slices[i][1]]),
                        min_expiry,
                        weights,
                    ),
                )
                return merge_shard_counts(slices, results, len(id_sets))
        return graph.csr().weighted_spread_sums(id_sets, min_expiry, weights)

    def fold_spread_sums(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
        *,
        fold: Fold,
    ) -> List[float]:
        """Per-set fold scores; sharded when profitable, exact always.

        The fold crosses the pipe as its picklable ``(name, params)``
        spec — a few bytes per task message — and workers rebuild it via
        the same registry the owner resolved it from, so owner and worker
        can never disagree about what a semantics name means.  Derived
        node values (``time_decay``) are recomputed worker-side from the
        mapped base arrays plus the replayed log's in-expiries; the
        derivation runs over the same float64 inputs the serial engine
        sees, which keeps sharded fold scores bit-identical to serial
        ones.  Weight-carrying folds
        (``weighted_sum``) stay on :meth:`weighted_spread_sums` — this
        path never ships dense arrays through the task queue.
        """
        fold = resolve_fold(fold)
        if not id_sets:
            return []
        if self._threads_ready(len(id_sets)):
            # Derived node values (time_decay) are computed once,
            # owner-side, from the same engine every clone shares — the
            # elementwise derivation process workers repeat per shard.
            eff = self._effective_horizon(graph, min_expiry)
            node_values = (
                graph.csr().fold_node_values(fold, min_expiry)
                if fold.derives_node_values
                else None
            )
            slices = shard_slices(len(id_sets), self.workers)
            clones = self._thread_kernels(graph, reverse=False)
            results = self._dispatch_threads(
                len(slices),
                lambda i: fold.batch(
                    clones[i],
                    list(id_sets[slices[i][0] : slices[i][1]]),
                    eff,
                    node_values,
                ),
                lambda i: graph.csr().fold_spread_sums(
                    list(id_sets[slices[i][0] : slices[i][1]]),
                    min_expiry,
                    fold,
                ),
            )
            return merge_shard_counts(slices, results, len(id_sets))
        if self._parallel_ready(graph, len(id_sets)):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(id_sets), self.workers)
            spec = fold.spec()
            shards = [
                ((list(id_sets[start:stop]), spec), eff)
                for start, stop in slices
            ]
            results = self._dispatch(
                worker_mod.OP_FSPREAD,
                shards,
                lambda i: graph.csr().fold_spread_sums(
                    list(id_sets[slices[i][0] : slices[i][1]]),
                    min_expiry,
                    fold,
                ),
            )
            return merge_shard_counts(slices, results, len(id_sets))
        return graph.csr().fold_spread_sums(id_sets, min_expiry, fold)

    def ancestor_ids(
        self,
        graph: "TDNGraph",
        target_ids: Iterable[int],
        min_expiry: Optional[float] = None,
    ) -> Set[int]:
        """Shard-merged reverse sweep: ancestors distribute over seed union."""
        targets = sorted(set(target_ids))
        if not targets:
            return set()
        # Thread mode uses the ordinary forward floor, not the steep
        # ancestor one: the transpose the process floor prices in is
        # built once owner-side and shared by every clone.
        if self._threads_ready(len(targets)):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(targets), self.workers)
            clones = self._thread_kernels(graph, reverse=True)
            results = self._dispatch_threads(
                len(slices),
                lambda i: clones[i].reachable_ids(
                    targets[slices[i][0] : slices[i][1]], eff
                ),
                lambda i: graph.csr().ancestor_ids(
                    targets[slices[i][0] : slices[i][1]], min_expiry
                ),
            )
            merged_ids: Set[int] = set()
            for shard_ids in results:
                merged_ids.update(shard_ids)
            return merged_ids
        if len(targets) >= self.ancestor_min_batch and self._parallel_ready(
            graph, len(targets)
        ):
            eff = self._effective_horizon(graph, min_expiry)
            slices = shard_slices(len(targets), self.workers)
            shards = [(targets[start:stop], eff) for start, stop in slices]
            results = self._dispatch(
                worker_mod.OP_ANCESTORS,
                shards,
                lambda i: sorted(
                    graph.csr().ancestor_ids(
                        targets[slices[i][0] : slices[i][1]], min_expiry
                    )
                ),
            )
            merged: Set[int] = set()
            for shard_ids in results:
                merged.update(shard_ids)
            return merged
        return graph.csr().ancestor_ids(targets, min_expiry)

    def touched_cone_ids(self, graph: "TDNGraph", seed_ids: Iterable[int]) -> Set[int]:
        """Dirty-cone closure (memo eviction / SIEVEADN candidate reuse)."""
        return self.ancestor_ids(graph, seed_ids, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.degraded or ("running" if self._procs else "idle")
        return f"ShardedOracleExecutor(workers={self.workers}, state={state!r})"


def _noop() -> None:
    pass


def _teardown(
    plane: Optional[SharedCSRPlane],
    task_queue: Any,
    procs: Any,
    workers: int,
    weight_segments: Optional[Dict[str, SharedWeights]] = None,
) -> None:
    """Best-effort pool shutdown shared by close() and the GC finalizer.

    ``procs`` is the supervisor's live process table (a dict shared by
    reference, so respawned workers are covered) or a plain list; it is
    emptied afterwards so a second teardown — double close(), or the
    finalizer racing an explicit close — is a clean no-op.
    """
    if isinstance(procs, dict):
        proc_list = [proc for _, proc in sorted(procs.items())]
    else:
        proc_list = list(procs)
    if task_queue is not None:
        for _ in range(max(workers, len(proc_list))):
            try:
                task_queue.put((worker_mod.OP_STOP,))
            except Exception:  # repro-lint: disable=RPL304
                break  # queue already broken; terminate below instead
    for proc in proc_list:
        proc.join(timeout=5.0)
    for proc in proc_list:
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=5.0)
    if isinstance(procs, dict):
        procs.clear()
    if task_queue is not None:
        try:
            task_queue.close()
            task_queue.join_thread()
        except Exception:  # repro-lint: disable=RPL304
            pass  # teardown is best-effort; nothing to surface to
    if weight_segments:
        for record in list(weight_segments.values()):
            record.close()
        weight_segments.clear()
    if plane is not None:
        plane.close()
