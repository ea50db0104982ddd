"""Serve live top-k influencer queries while ingesting a stream — async.

The serving story, end to end
-----------------------------
A production influence tracker is not a batch replay: interaction events
arrive continuously from upstream (a message bus, an HTTP collector) while
dashboards and ranking services keep asking "who are the top-k right
now?".  :class:`repro.parallel.IngestService` packages that loop:

* **Ingestion with backpressure** — producers ``await submit(t, batch)``;
  the service applies batches in order on a single apply thread and the
  bounded queue slows producers down instead of buffering unboundedly
  when ingestion falls behind.

* **Epoch consistency** — after every applied batch the service advances
  its *epoch* and atomically swaps in that epoch's solution.  Queries
  (``await top_k()``) are answered from the last consistent epoch in
  microseconds; they never block behind ingestion and never observe a
  half-applied batch.  If a batch raises, the service stops applying:
  ``submit`` / ``drain`` / ``close`` raise that failure, and ``top_k``
  keeps answering the last consistent epoch flagged ``stale`` with the
  unapplied batch count in ``lag``.

* **Sharded evaluation** — constructing the tracker with ``workers=N``
  puts a :class:`repro.parallel.ShardedOracleExecutor` behind its oracle:
  the first sharded sweep after a batch cuts fresh per-thread kernel
  clones of the graph's CSR engine, and the executor's threads shard the
  spread sweeps, bit-identically to the serial engine.  On the small batches of this
  demo the thread hand-off outweighs the gain, so this script defaults
  to ``workers=1``; pass ``--workers 2`` to see it run sharded.

Run:
    python examples/serve_topk.py [--workers N] [--events 400]

Expected output: interleaved producer/query log lines, ending with the
final epoch's influencer set — identical to what a plain synchronous
replay of the same stream computes.
"""

import argparse
import asyncio
import random

from repro import (
    GeometricLifetime,
    InfluenceTracker,
    metric_names,
    metrics_registry,
    retweet_stream,
)

# The async ingest service is a power-user surface with no facade
# equivalent yet; this example documents it deliberately.
# repro-lint: disable-next=RPL105
from repro.parallel import IngestService


async def produce(service: IngestService, batches) -> None:
    """Feed batches as a bursty producer (backpressure-aware)."""
    rng = random.Random(99)
    for t, batch in batches:
        await service.submit(t, batch)  # awaits while the queue is full
        if rng.random() < 0.1:
            await asyncio.sleep(0)  # yield: let queriers interleave


async def watch(service: IngestService, done: asyncio.Event) -> None:
    """A dashboard poller: read the freshest consistent answer."""
    last_epoch = -1
    while not done.is_set():
        answer = await service.top_k()
        if answer.epoch != last_epoch and answer.epoch % 40 == 0:
            nodes = ", ".join(str(n) for n in answer.nodes[:5])
            # The service publishes its live state as gauges: how many
            # batches wait in the queue and how far applies lag ingest.
            registry = metrics_registry()
            depth = registry.gauge(metric_names.INGEST_QUEUE_DEPTH).value
            lag = registry.gauge(metric_names.INGEST_EPOCH_LAG).value
            print(
                f"  [query] epoch={answer.epoch:>4}  t={answer.time:>4}  "
                f"value={answer.value:>6.0f}  queue={depth:>2.0f}  "
                f"lag={lag:>2.0f}  top=[{nodes}]"
            )
            last_epoch = answer.epoch
        await asyncio.sleep(0.01)


async def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="oracle evaluation workers (1 = serial)")
    parser.add_argument("--events", type=int, default=400)
    parser.add_argument("--k", type=int, default=5)
    args = parser.parse_args()

    events = retweet_stream(num_users=150, num_events=args.events, seed=7)
    batches: dict = {}
    for event in events:
        batches.setdefault(event.time, []).append(event)
    ordered = sorted(batches.items())

    tracker = InfluenceTracker(
        "hist-approx",
        k=args.k,
        epsilon=0.2,
        lifetime_policy=GeometricLifetime(p=0.02, max_lifetime=200, seed=1),
        workers=args.workers,
    )
    service = IngestService(tracker, max_pending=16)
    await service.start()
    print(
        f"serving top-{args.k} over {len(events)} events "
        f"({len(ordered)} batches, workers={args.workers})"
    )

    done = asyncio.Event()
    watcher = asyncio.get_running_loop().create_task(watch(service, done))
    try:
        await produce(service, ordered)
        answer = await service.drain()
    finally:
        # Always release the watcher task, the apply thread, and the
        # worker pool — even when ingestion fails mid-stream.  close()
        # re-raises any consumer failure, so guard tracker.close() too.
        done.set()
        watcher.cancel()
        try:
            await watcher
        except (asyncio.CancelledError, RuntimeError):
            pass
        try:
            await service.close()
        finally:
            tracker.close()

    print(f"\nfinal epoch {answer.epoch} (t={answer.time}):")
    for rank, node in enumerate(answer.nodes, 1):
        print(f"  {rank}. {node}")
    print(f"  spread value: {answer.value:.0f}")
    print(f"  oracle calls: {tracker.oracle_calls}")
    registry = metrics_registry()
    applied = registry.counter(metric_names.INGEST_BATCHES_APPLIED_TOTAL)
    lag_now = registry.gauge(metric_names.INGEST_EPOCH_LAG).value
    depth_now = registry.gauge(metric_names.INGEST_QUEUE_DEPTH).value
    print(f"  batches applied: {applied.value:.0f}")
    print(f"  epoch lag now: {lag_now:.0f} (queue depth {depth_now:.0f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(asyncio.run(main()))
