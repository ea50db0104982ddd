"""Async ingest service: ordering, backpressure, consistency, failure."""

import asyncio

import pytest

from repro.core.tracker import InfluenceTracker
from repro.parallel.service import IngestService, TopKAnswer
from repro.tdn.lifetimes import GeometricLifetime


def make_tracker(**kwargs):
    return InfluenceTracker(
        "sieve-adn",
        k=3,
        epsilon=0.3,
        lifetime_policy=GeometricLifetime(0.05, 60, seed=3),
        **kwargs,
    )


def batches(count=24):
    return [
        (t, [(f"u{t % 6}", f"v{(t * 3) % 9}", None), (f"v{t % 9}", f"w{t % 4}", None)])
        for t in range(count)
    ]


class TestIngestService:
    def test_matches_direct_stepping(self):
        async def run():
            tracker = make_tracker()
            service = IngestService(tracker)
            await service.start()
            for t, batch in batches():
                await service.submit(t, batch)
            answer = await service.drain()
            await service.close()
            return answer

        answer = asyncio.run(run())
        reference = make_tracker()
        solution = None
        for t, batch in batches():
            solution = reference.step(t, batch)
        assert answer == TopKAnswer(
            epoch=len(batches()),
            time=solution.time,
            nodes=tuple(solution.nodes),
            value=float(solution.value),
        )

    def test_queries_serve_last_consistent_epoch(self):
        async def run():
            tracker = make_tracker()
            service = IngestService(tracker, max_pending=4)
            await service.start()
            seen = []

            async def producer():
                for t, batch in batches():
                    await service.submit(t, batch)

            async def querier():
                for _ in range(40):
                    answer = await service.top_k()
                    seen.append(answer.epoch)
                    await asyncio.sleep(0)

            await asyncio.gather(producer(), querier())
            final = await service.drain()
            await service.close()
            return seen, final

        seen, final = asyncio.run(run())
        assert seen == sorted(seen)  # epochs only ever advance
        assert final.epoch == len(batches())

    def test_backpressure_bounds_the_queue(self):
        async def run():
            tracker = make_tracker()
            service = IngestService(tracker, max_pending=2)
            await service.start()
            for t, batch in batches(10):
                await service.submit(t, batch)
                assert service.pending <= 2
            await service.drain()
            await service.close()
            return service.batches_applied

        assert asyncio.run(run()) == 10

    def test_consumer_failure_surfaces_to_callers(self):
        async def run():
            tracker = make_tracker()
            service = IngestService(tracker)
            await service.start()
            await service.submit(5, [("a", "b", None)])
            await service.drain()
            # Rewinding time makes tracker.step raise inside the consumer.
            await service.submit(1, [("c", "d", None)])
            # A backlog *behind* the poison batch must not deadlock
            # drain(): the consumer discards (and acknowledges) it.
            for t in (6, 7, 8):
                await service.submit(t, [("x", f"y{t}", None)])
            with pytest.raises(RuntimeError, match="ingest consumer failed"):
                await service.drain()
            # top_k still answers from the last applied epoch, flagged
            # stale; the failed batch is the one unapplied (the backlog
            # behind it was discarded).
            answer = await service.top_k()
            assert answer.epoch == 1
            assert answer.stale is True and answer.lag == 1
            with pytest.raises(RuntimeError):
                await service.submit(9, [("e", "f", None)])
            assert service.batches_applied == 1  # nothing after the poison
            # close() re-raises the failure (after releasing resources),
            # so a submit-then-close caller can never miss dropped data.
            with pytest.raises(RuntimeError, match="ingest consumer failed"):
                await service.close()

        asyncio.run(run())

    def test_start_after_close_is_refused(self):
        async def run():
            service = IngestService(make_tracker())
            await service.start()
            await service.close()
            with pytest.raises(RuntimeError, match="closed"):
                await service.start()

        asyncio.run(run())

    def test_submit_requires_start(self):
        async def run():
            service = IngestService(make_tracker())
            with pytest.raises(RuntimeError, match="not running"):
                await service.submit(0, [])

        asyncio.run(run())

    def test_rejects_nonpositive_queue_bound(self):
        with pytest.raises(ValueError):
            IngestService(make_tracker(), max_pending=0)
