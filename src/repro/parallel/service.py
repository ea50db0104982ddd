"""Async ingestion front door: batched ingest, epoch publication, top-k serving.

:class:`IngestService` turns a synchronous :class:`~repro.core.tracker.
InfluenceTracker` into a small always-on service:

* producers ``await submit(t, interactions)`` — batches land on a bounded
  queue, so a slow tracker exerts *backpressure* on fast producers
  instead of buffering unboundedly;
* one consumer loop applies batches in order on a single worker thread
  (the TDN graph and trackers are single-writer structures), advances the
  service **epoch** after each batch, and refreshes the sharded
  executor's kernel clones when the tracker's oracle runs one — so shard
  threads always sweep the last *consistent* graph;
* ``await top_k()`` answers immediately from the last consistent epoch's
  solution — queries never block behind ingestion and never observe a
  half-applied batch.

Failure handling
----------------
Batches are *journaled* with sequence numbers from the moment the
consumer dequeues them until their epoch publishes (``_latest`` is
assigned only after ``tracker.step`` and the clone refresh complete).
If the single writer thread dies (detected as :class:`WriterDeathError`
or a broken thread pool), the service restarts the writer — within a
bounded restart budget — and replays the journal's unapplied entries in
order; because an entry leaves the journal only at its commit point,
replay can never double-apply a batch, and ``top_k`` can never observe a
half-applied epoch.  While the service is degraded (poisoned consumer or writer
mid-recovery), ``top_k`` keeps answering from the last consistent epoch
but says so: the answer carries ``stale=True`` and the number of
unapplied batches in ``lag``.  :meth:`health` exposes the whole picture.

The apply thread is the only writer; the event loop only moves immutable
:class:`TopKAnswer` records, so any number of concurrent producers and
queriers is safe.  See ``examples/serve_topk.py`` for a runnable tour.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import Any, Deque, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigError, DegradedExecutionError
from repro.obs import names as metric_names
from repro.obs.registry import MetricsRegistry, metrics_registry
from repro.parallel.degradation import DegradationLadder, DegradationReason
from repro.parallel.faults import FaultPlan

__all__ = ["IngestService", "TopKAnswer", "WriterDeathError"]

_STOP = object()

#: Default writer-thread restarts allowed before the service poisons.
WRITER_RESTART_BUDGET = 3


class WriterDeathError(RuntimeError):
    """The apply (writer) thread died before committing a batch.

    Raised *before* ``tracker.step`` mutates anything — by the fault
    harness, or by wrappers detecting an unusable writer — so the batch
    is still journaled, untouched, and safe to replay on a fresh writer.
    """


class TopKAnswer(NamedTuple):
    """One consistent query answer: the epoch it refers to and its solution.

    ``stale`` / ``lag`` are staleness metadata stamped at *query* time:
    a degraded service keeps serving the last consistent epoch but marks
    it stale and reports how many accepted batches it has not applied.
    Answers published at commit time always carry the defaults.
    """

    epoch: int
    time: int
    nodes: Tuple
    value: float
    stale: bool = False
    lag: int = 0


class IngestService:
    """Asyncio wrapper that serves a tracker under concurrent load.

    Args:
        tracker: an :class:`~repro.core.tracker.InfluenceTracker` (or any
            object with ``step(t, batch)`` returning a Solution, a
            ``graph``, and an ``oracle``).  The service becomes its sole
            driver — do not call ``step`` elsewhere while it runs.
        max_pending: bound of the ingest queue; :meth:`submit` awaits
            (backpressure) while the queue is full.
        writer_restart_budget: writer-thread restarts allowed before the
            service gives up and poisons (surfaced to every caller).
        fault_plan: injected fault schedule (chaos tests); defaults to
            :meth:`FaultPlan.from_env` (``REPRO_FAULTS``), i.e. no faults.
        metrics: the :class:`~repro.obs.registry.MetricsRegistry` the
            service records into — queue depth, epoch, epoch lag,
            batch-apply and republish timings.  Defaults to the process
            registry (:func:`repro.obs.metrics_registry`), which is what
            a scrape endpoint will read; pass a private registry to
            isolate one service's series (tests do).

    Usage::

        service = IngestService(tracker, max_pending=32)
        await service.start()
        await service.submit(t, [("u", "v", 5), ...])
        answer = await service.top_k()
        await service.close()
    """

    def __init__(
        self,
        tracker: Any,
        *,
        max_pending: int = 64,
        writer_restart_budget: int = WRITER_RESTART_BUDGET,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_pending <= 0:
            raise ConfigError(f"max_pending must be positive, got {max_pending}")
        self._tracker = tracker
        self._max_pending = max_pending
        self.metrics = metrics_registry() if metrics is None else metrics
        self._queue_depth = self.metrics.gauge(metric_names.INGEST_QUEUE_DEPTH)
        self._epoch_gauge = self.metrics.gauge(metric_names.INGEST_EPOCH)
        self._lag_gauge = self.metrics.gauge(metric_names.INGEST_EPOCH_LAG)
        self._lag_hist = self.metrics.histogram(
            metric_names.INGEST_EPOCH_LAG_BATCHES
        )
        self._apply_hist = self.metrics.histogram(
            metric_names.INGEST_BATCH_APPLY_SECONDS
        )
        self._republish_hist = self.metrics.histogram(
            metric_names.INGEST_REPUBLISH_SECONDS
        )
        self._batches_counter = self.metrics.counter(
            metric_names.INGEST_BATCHES_APPLIED_TOTAL
        )
        self._queue: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        # One thread = one writer: batches apply strictly in submit order.
        self._apply_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-ingest"
        )
        self._latest = TopKAnswer(epoch=0, time=0, nodes=(), value=0.0)
        self._failure: Optional[BaseException] = None
        self._closed = False
        self.batches_applied = 0
        self._ladder = DegradationLadder()
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._writer_faults_fired: "set[int]" = set()
        self._writer_restart_budget = max(0, writer_restart_budget)
        self._writer_restarts = 0
        # Sequence-numbered journal of dequeued-but-uncommitted batches.
        # An entry is appended when the consumer picks the batch up and
        # popped only once its epoch publishes, so writer recovery can
        # replay exactly the unapplied work — never more, never less.
        self._seq = 0
        self._journal: Deque[Tuple[int, int, Sequence[Tuple]]] = deque()

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epochs advance once per applied batch; 0 = nothing ingested."""
        return self._latest.epoch

    @property
    def running(self) -> bool:
        return self._consumer is not None and not self._consumer.done()

    @property
    def pending(self) -> int:
        """Batches waiting in the ingest queue (bounded by ``max_pending``)."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def _unapplied(self) -> int:
        """Batches accepted but not yet committed (queued + journaled)."""
        return self.pending + len(self._journal)

    def health(self) -> Dict[str, object]:
        """Inspectable service health (mirrors ``executor.health_report``).

        Keys: ``running`` / ``closed`` / ``epoch`` / ``pending`` /
        ``journal_depth``, ``writer_restarts`` + ``writer_restart_budget``,
        ``failure`` (repr of the poisoning exception, or None), the
        service ladder's ``state`` / ``incidents``, and ``executor``
        (the sharded executor's full health report, when one is wired).
        """
        ladder = self._ladder.report()
        oracle = getattr(self._tracker, "oracle", None)
        executor = getattr(oracle, "executor", None)
        return {
            "running": self.running,
            "closed": self._closed,
            "epoch": self.epoch,
            "pending": self.pending,
            "journal_depth": len(self._journal),
            "writer_restarts": self._writer_restarts,
            "writer_restart_budget": self._writer_restart_budget,
            "failure": repr(self._failure) if self._failure is not None else None,
            "state": ladder["state"],
            "incidents": ladder["incidents"],
            "executor": (
                executor.health_report()
                if executor is not None and hasattr(executor, "health_report")
                else None
            ),
        }

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the consumer loop (idempotent; refuses a closed service).

        A closed service's single-writer apply thread is gone for good —
        restarting would accept batches and then fail every one of them,
        so the error is raised here, at the first wrong call.
        """
        if self._closed:
            raise DegradedExecutionError("service is closed; construct a new IngestService")
        if self.running:
            return
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self._consumer = asyncio.get_running_loop().create_task(self._consume())

    async def submit(self, t: int, interactions: Iterable) -> None:
        """Enqueue one batch; awaits while the queue is full (backpressure)."""
        self._check_failure()
        if self._closed:
            raise DegradedExecutionError("service is closed; batch rejected")
        if not self.running:
            raise DegradedExecutionError("service is not running; call start() first")
        await self._queue.put((t, list(interactions)))
        self._queue_depth.set(self.pending)
        self._lag_gauge.set(self._unapplied)

    async def top_k(self) -> TopKAnswer:
        """The last consistent epoch's solution (never blocks on ingestion).

        Degradation never silently serves stale data: when the consumer
        is poisoned or the writer is mid-recovery, the answer is still
        the last *fully applied* epoch, but flagged ``stale=True`` with
        the count of unapplied batches in ``lag``.
        """
        if self._failure is not None or not self._ladder.healthy:
            return self._latest._replace(stale=True, lag=self._unapplied)
        return self._latest

    async def drain(self) -> TopKAnswer:
        """Wait until every accepted batch is applied; returns the answer."""
        self._check_failure()
        if self._queue is not None:
            await self._queue.join()
        self._check_failure()
        return self._latest

    async def close(self) -> None:
        """Drain, stop the consumer, release the apply thread.

        Raises the recorded consumer failure (after releasing every
        resource) so a ``submit ... close`` caller cannot mistake a run
        whose tail batches were discarded for a successful one.
        """
        self._closed = True
        if self._queue is not None and self.running:
            await self._queue.put((_STOP, None))
            await self._consumer
        self._consumer = None
        # shutdown(wait=True) joins the apply thread; run it off-loop so
        # close() never stalls the event loop on a slow final batch.
        await asyncio.get_running_loop().run_in_executor(
            None, self._apply_thread.shutdown
        )
        self._check_failure()

    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            t, batch = await self._queue.get()
            try:
                if t is _STOP:
                    # Acknowledge anything racing in behind the sentinel
                    # (a submit that passed its closed-check just before
                    # close() set the flag) so queue.join() never hangs.
                    while True:
                        try:
                            self._queue.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        self._queue.task_done()
                    return
                if self._failure is not None:
                    # Poisoned: discard the backlog (the finally still
                    # acknowledges each item) so an in-flight drain()'s
                    # queue.join() resolves and blocked submitters wake
                    # up — both then observe the failure via
                    # _check_failure instead of hanging forever.
                    continue
                self._seq += 1
                self._journal.append((self._seq, t, batch))
                # Lag is observed per journaled batch (always >= 1 here),
                # so the histogram's _count series reflects accepted
                # batches even after a drain zeroes the gauge.
                self._queue_depth.set(self.pending)
                lag = self._unapplied
                self._lag_gauge.set(lag)
                self._lag_hist.observe(lag)
                while self._journal and self._failure is None:
                    try:
                        await loop.run_in_executor(
                            self._apply_thread, self._apply_journal
                        )
                    except asyncio.CancelledError:
                        # Event-loop shutdown cancelling this task is not
                        # an ingest failure — propagate so the loop can
                        # finish.
                        raise
                    except (WriterDeathError, BrokenExecutor) as exc:
                        # The writer died before committing: restart it
                        # and loop to replay the journal — the dead
                        # attempt never reached the commit point, so the
                        # batch is applied exactly once.
                        if not self._restart_writer(exc):
                            break
                    except BaseException as exc:
                        # Surface the failure to every subsequent caller
                        # instead of dying silently inside the task.
                        self._failure = exc
                        break
            finally:
                self._queue.task_done()

    def _apply_journal(self) -> None:
        """Apply every journaled batch in order (writer thread only).

        Each entry commits atomically from the caller's point of view:
        ``tracker.step`` + clone refresh first, then ``_latest`` flips
        to the new epoch and the entry leaves the journal.  A fault (or
        death) before the commit point leaves the entry journaled for
        replay; there is no state in which an epoch is served before its
        batch fully applied.
        """
        while self._journal:
            seq, t, batch = self._journal[0]
            if (
                self._fault_plan is not None
                and self._fault_plan.writer_dies_at(seq)
                and seq not in self._writer_faults_fired
            ):
                self._writer_faults_fired.add(seq)
                raise WriterDeathError(
                    f"injected fault: writer died before applying batch {seq}"
                )
            apply_started = time.monotonic()
            solution = self._tracker.step(t, batch)
            self._republish()
            self._latest = TopKAnswer(
                epoch=self._latest.epoch + 1,
                time=solution.time,
                nodes=tuple(solution.nodes),
                value=float(solution.value),
            )
            self.batches_applied += 1
            self._journal.popleft()
            self._apply_hist.observe(time.monotonic() - apply_started)
            self._batches_counter.inc()
            self._epoch_gauge.set(self._latest.epoch)
            self._lag_gauge.set(self._unapplied)

    def _restart_writer(self, exc: BaseException) -> bool:
        """Replace the dead writer thread; False when the budget is gone."""
        self._writer_restarts += 1
        if self._writer_restarts > self._writer_restart_budget:
            self._failure = exc
            self._ladder.degrade(
                DegradationReason.WRITER_DEATH,
                f"writer restart budget ({self._writer_restart_budget}) exhausted",
            )
            return False
        self._ladder.note_incident(
            DegradationReason.WRITER_DEATH,
            f"restarting writer (attempt {self._writer_restarts}), "
            f"replaying {len(self._journal)} journaled batch(es)",
        )
        dead = self._apply_thread
        self._apply_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-ingest"
        )
        dead.shutdown(wait=False)
        return True

    def _republish(self) -> None:
        """Cut the sharded executor's kernel clones for the new epoch.

        Only once the executor's shard threads are running: a stream
        whose sweeps all fall below the dispatch floor never needs
        clones.  Dispatch cuts them anyway; this merely moves the cut
        onto the writer thread, so epoch-N query traffic never pays it.
        """
        oracle = getattr(self._tracker, "oracle", None)
        executor = getattr(oracle, "executor", None)
        if executor is None or not executor.pool_running:
            return
        republish_started = time.monotonic()
        executor.ensure_plane(self._tracker.graph)
        self._republish_hist.observe(time.monotonic() - republish_started)

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise DegradedExecutionError(
                f"ingest consumer failed: {self._failure!r}"
            ) from self._failure
