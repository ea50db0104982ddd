"""Async ingestion front door: batched ingest, epoch publication, top-k serving.

:class:`IngestService` turns a synchronous :class:`~repro.core.tracker.
InfluenceTracker` into a small always-on service:

* producers ``await submit(t, interactions)`` — batches land on a bounded
  queue, so a slow tracker exerts *backpressure* on fast producers
  instead of buffering unboundedly;
* one consumer loop applies batches in order on a single worker thread
  (the TDN graph and trackers are single-writer structures) and advances
  the service **epoch** after each batch;
* ``await top_k()`` answers immediately from the last consistent epoch's
  solution — queries never block behind ingestion and never observe a
  half-applied batch.

Failure handling
----------------
An exception from ``tracker.step`` *poisons* the service: the batch's
epoch is never published (``_latest`` is assigned only after the step
completes), the backlog is discarded, and ``submit`` /
``drain`` / ``close`` raise the recorded failure.  ``top_k`` keeps
answering from the last consistent epoch but says so: the answer
carries ``stale=True`` and the number of unapplied batches (queued plus
the one that failed) in ``lag``.

The apply thread is the only writer; the event loop only moves immutable
:class:`TopKAnswer` records, so any number of concurrent producers and
queriers is safe.  See ``examples/serve_topk.py`` for a runnable tour.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError, DegradedExecutionError
from repro.obs import names as metric_names
from repro.obs.registry import MetricsRegistry, metrics_registry

__all__ = ["IngestService", "TopKAnswer"]

_STOP = object()


class TopKAnswer(NamedTuple):
    """One consistent query answer: the epoch it refers to and its solution.

    ``stale`` / ``lag`` are staleness metadata stamped at *query* time:
    a poisoned service keeps serving the last consistent epoch but marks
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
        metrics: the :class:`~repro.obs.registry.MetricsRegistry` the
            service records into — queue depth, epoch, epoch lag and
            batch-apply timings.  Defaults to the process
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
        # True from dequeue until the batch's epoch publishes; a batch
        # that poisoned the service stays counted as unapplied.
        self._applying = False

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
        """Batches accepted but not yet committed (queued + applying)."""
        return self.pending + self._applying

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

        A poisoned service never silently serves stale data: the answer
        is still the last *fully applied* epoch, but flagged
        ``stale=True`` with the count of unapplied batches in ``lag``.
        """
        if self._failure is not None:
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
                self._applying = True
                # Lag is observed per dequeued batch (always >= 1 here),
                # so the histogram's _count series reflects accepted
                # batches even after a drain zeroes the gauge.
                self._queue_depth.set(self.pending)
                lag = self._unapplied
                self._lag_gauge.set(lag)
                self._lag_hist.observe(lag)
                try:
                    await loop.run_in_executor(
                        self._apply_thread, self._apply, t, batch
                    )
                except asyncio.CancelledError:
                    # Event-loop shutdown cancelling this task is not an
                    # ingest failure — propagate so the loop can finish.
                    raise
                except BaseException as exc:
                    # Surface the failure to every subsequent caller
                    # instead of dying silently inside the task.
                    self._failure = exc
            finally:
                self._queue.task_done()

    def _apply(self, t: int, batch: List[Tuple]) -> None:
        """Apply one batch and publish its epoch (apply thread only).

        ``tracker.step`` runs first; only then does ``_latest`` flip to
        the new epoch, so no epoch is ever served before its batch fully
        applied.
        """
        apply_started = time.monotonic()
        solution = self._tracker.step(t, batch)
        self._latest = TopKAnswer(
            epoch=self._latest.epoch + 1,
            time=solution.time,
            nodes=tuple(solution.nodes),
            value=float(solution.value),
        )
        self.batches_applied += 1
        self._applying = False
        self._apply_hist.observe(time.monotonic() - apply_started)
        self._batches_counter.inc()
        self._epoch_gauge.set(self._latest.epoch)
        self._lag_gauge.set(self._unapplied)

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise DegradedExecutionError(
                f"ingest consumer failed: {self._failure!r}"
            ) from self._failure
