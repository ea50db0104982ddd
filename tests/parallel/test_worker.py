"""The worker loop, driven in-process (queues + thread, real plane).

The pool tests exercise ``worker_main`` for real, but in child processes
where coverage cannot see it; this module drives the exact same loop in a
thread against plain queues, pinning the protocol — result tagging, error
reporting instead of crashing, arrival-log replay, generation
re-attachment, stop handling.
"""

import queue
import random
import threading

import pytest

from repro.parallel import worker
from repro.parallel.plane import SharedCSRPlane, shared_memory_available
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture
def loop_harness():
    """A worker_main loop running in a thread over in-process queues."""
    tasks: queue.Queue = queue.Queue()
    results: queue.Queue = queue.Queue()
    plane = SharedCSRPlane()
    thread = threading.Thread(
        target=worker.worker_main, args=(tasks, results, plane.prefix), daemon=True
    )
    thread.start()
    yield tasks, results, plane
    tasks.put((worker.OP_STOP,))
    thread.join(timeout=10)
    plane.close()


def get_reply(results, timeout=10):
    """Next substantive result, skipping started-acks.

    Every sweep op first acknowledges the claim with
    ``(request, shard, ("started", worker_index))`` so the supervisor can
    attribute in-flight shards to workers; the tests here mostly care
    about the ``(status, value, deltas)`` reply itself.
    """
    while True:
        item = results.get(timeout=timeout)
        if item[2][0] != "started":
            return item


def task(op, request, shard, plane, payload, eff):
    """A task tuple dispatched at the plane's current state."""
    return (
        op,
        request,
        shard,
        plane.generation,
        plane.log_length,
        plane.num_nodes,
        payload,
        eff,
    )


def build_graph(seed=3):
    rng = random.Random(seed)
    graph = TDNGraph()
    for t in range(40):
        graph.advance_to(t)
        u, v = rng.sample(range(20), 2)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, rng.randint(2, 30)))
    return graph


class TestWorkerLoop:
    def test_ping_and_all_ops(self, loop_harness):
        tasks, results, plane = loop_harness
        graph = build_graph()
        plane.publish(graph.csr())
        serial = graph.csr()
        eff = float(graph.time + 1)
        ids = list(range(graph.num_interned))

        tasks.put((worker.OP_PING, 1))
        assert results.get(timeout=10) == (1, 0, ("ok", "pong", {}))

        # Sweep ops first acknowledge the claim, tagged with the worker
        # index, so the supervisor can strike in-flight tasks on death.
        sets = [[i] for i in ids[:10]]
        tasks.put(task(worker.OP_SPREAD, 2, 4, plane, sets, eff))
        assert results.get(timeout=10) == (2, 4, ("started", 0))
        # One reply per shard: the worker-local metrics drain rides
        # inside it, and no other message follows.
        request, shard, (status, counts, deltas) = results.get(timeout=10)
        assert (request, shard, status) == (2, 4, "ok")
        assert counts == serial.spread_counts(sets, None)
        assert deltas.get("repro_worker_tasks_total") == 1.0
        assert results.empty()

        tasks.put(task(worker.OP_REACH, 3, 0, plane, sets, eff))
        _, _, (status, reach, _) = get_reply(results)
        assert status == "ok"
        assert [set(r) for r in reach] == [serial.reachable_ids(s, None) for s in sets]

        tasks.put(task(worker.OP_ANCESTORS, 4, 0, plane, ids[:5], eff))
        _, _, (status, ancestors, _) = get_reply(results)
        assert status == "ok"
        assert set(ancestors) == serial.ancestor_ids(ids[:5], None)

    def test_weighted_op_folds_published_weights(self, loop_harness):
        """OP_WSPREAD maps the published weight segment and returns the
        serial engine's exact 64-wide weight sums, re-attaching when the
        owner republishes a longer array under the same key."""
        import numpy as np

        from repro.parallel.plane import SharedWeights

        tasks, results, plane = loop_harness
        graph = build_graph(seed=21)
        plane.publish(graph.csr())
        serial = graph.csr()
        eff = float(graph.time + 1)
        ids = list(range(graph.num_interned))
        sets = [[i] for i in ids] + [ids[:3]]

        weights = np.asarray([1.0 + (i % 5) for i in ids], dtype=np.float64)
        published = SharedWeights(f"{plane.prefix}-wk-{len(ids)}", weights)
        try:
            payload = (sets, "wk", published.name, published.length)
            tasks.put(task(worker.OP_WSPREAD, 5, 2, plane, payload, eff))
            request, shard, (status, sums, _) = get_reply(results)
            assert (request, shard, status) == (5, 2, "ok")
            assert sums == serial.weighted_spread_sums(sets, None, weights)

            # Republish under the same key with a different epoch (name):
            # the worker must detach the stale mapping and re-attach.
            rescaled = weights * 2.0
            longer = SharedWeights(f"{plane.prefix}-wk-{len(ids)}b", rescaled)
            try:
                payload = (sets, "wk", longer.name, longer.length)
                tasks.put(task(worker.OP_WSPREAD, 6, 0, plane, payload, eff))
                _, _, (status, sums, _) = get_reply(results)
                assert status == "ok"
                assert sums == serial.weighted_spread_sums(sets, None, rescaled)
            finally:
                longer.close()
        finally:
            published.close()

    def test_replays_log_then_reattaches_on_new_generation(self, loop_harness):
        tasks, results, plane = loop_harness
        graph = build_graph(seed=9)
        engine = graph.csr()
        first = plane.publish(engine)
        sets = [[0], [1]]
        eff = float(graph.time + 1)
        tasks.put(task(worker.OP_SPREAD, 1, 0, plane, sets, eff))
        assert get_reply(results)[2][0] == "ok"
        # An arrival with a new node: appended to the same generation's
        # log, replayed by the worker, id space grown to match.
        graph.advance_to(graph.time + 1)
        graph.add_interaction(Interaction("n0", "fresh", graph.time, 9))
        assert plane.append(graph.csr())
        assert plane.generation == first and plane.log_length == 1
        sets = [[i] for i in range(graph.num_interned)]
        tasks.put(task(worker.OP_SPREAD, 2, 0, plane, sets, float(graph.time + 1)))
        _, _, (status, counts, _) = get_reply(results)
        assert status == "ok"
        assert counts == graph.csr().spread_counts(sets, None)
        # A new generation: the worker re-attaches and replays from row 0.
        second = plane.publish(graph.csr())
        assert second == first + 1
        tasks.put(task(worker.OP_SPREAD, 3, 0, plane, sets, float(graph.time + 1)))
        _, _, (status, counts, _) = get_reply(results)
        assert status == "ok"
        assert counts == graph.csr().spread_counts(sets, None)

    def test_errors_are_reported_not_fatal(self, loop_harness):
        tasks, results, plane = loop_harness
        graph = build_graph(seed=13)
        generation = plane.publish(graph.csr())
        eff = float(graph.time + 1)
        # Generation skew: the header does not match what the task expects.
        skewed = task(worker.OP_SPREAD, 1, 0, plane, [[0]], eff)
        tasks.put(skewed[:3] + (generation + 5,) + skewed[4:])
        _, _, (status, message, _) = get_reply(results)
        assert status == "error"
        # Unknown opcode travels the same error path...
        tasks.put(task("no-such-op", 2, 0, plane, [[0]], eff))
        assert get_reply(results)[2][0] == "error"
        # ...and the loop is still alive afterwards.
        tasks.put(task(worker.OP_SPREAD, 3, 0, plane, [[0]], eff))
        _, _, (status, counts, _) = get_reply(results)
        assert status == "ok"
        assert counts == graph.csr().spread_counts([[0]], None)


class TestWorkerFaultHooks:
    """The in-loop fault hooks, driven in-thread.

    ``kill`` is deliberately excluded — its ``os._exit`` would take the
    test process down with it; the chaos suite exercises it against real
    child processes.
    """

    def _start(self, faults):
        from repro.parallel.faults import WorkerFaults

        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        plane = SharedCSRPlane()
        thread = threading.Thread(
            target=worker.worker_main,
            args=(tasks, results, plane.prefix, 3, WorkerFaults(**faults)),
            daemon=True,
        )
        thread.start()
        return tasks, results, plane, thread

    def test_drop_delay_and_attach_fault_sites(self):
        tasks, results, plane, thread = self._start(
            {
                "drop_at": frozenset({1}),
                "attach_fail_at": frozenset({1}),
                "delay_at": {3: 0.01},
            }
        )
        try:
            graph = build_graph(seed=5)
            plane.publish(graph.csr())
            eff = float(graph.time + 1)
            # Task 1 is dropped: no ack, no reply — the next reply on the
            # queue belongs to task 2.
            tasks.put(task(worker.OP_SPREAD, 1, 0, plane, [[0]], eff))
            # Task 2 is acked (claimed, tagged with the worker index) but
            # its first plane attach raises — reported as an error reply,
            # loop alive.
            tasks.put(task(worker.OP_SPREAD, 2, 1, plane, [[0]], eff))
            assert results.get(timeout=10) == (2, 1, ("started", 3))
            request, shard, (status, message, _) = get_reply(results)
            assert (request, shard, status) == (2, 1, "error")
            assert "attach" in message
            # Task 3 is delayed, then answers exactly (fresh attach works).
            tasks.put(task(worker.OP_SPREAD, 3, 2, plane, [[0]], eff))
            request, shard, (status, counts, _) = get_reply(results)
            assert (request, shard, status) == (3, 2, "ok")
            assert counts == graph.csr().spread_counts([[0]], None)
        finally:
            tasks.put((worker.OP_STOP,))
            thread.join(timeout=10)
            plane.close()
