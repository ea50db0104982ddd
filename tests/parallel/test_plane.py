"""Shared-memory CSR plane: publish/attach round trips and lifecycle."""

import random

import pytest

from repro.parallel.plane import (
    PlaneEngine,
    SharedCSRPlane,
    attach_plane_engine,
    shared_memory_available,
)
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


def build_graph(seed=11, num_nodes=40, num_events=200):
    rng = random.Random(seed)
    graph = TDNGraph()
    t = 0
    for _ in range(num_events):
        if rng.random() < 0.2:
            t += 1
            graph.advance_to(t)
        u, v = rng.sample(range(num_nodes), 2)
        lifetime = None if rng.random() < 0.1 else rng.randint(1, 40)
        graph.add_interaction(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return graph


def plane_segments(prefix):
    """Names of this plane's live segments, probed via attach."""
    from multiprocessing import shared_memory

    names = []
    for suffix in ("hdr",):
        try:
            segment = shared_memory.SharedMemory(name=f"{prefix}-{suffix}")
        except FileNotFoundError:
            continue
        segment.close()
        names.append(suffix)
    return names


class TestPublishAttach:
    def test_round_trip_matches_serial_engine(self):
        graph = build_graph()
        plane = SharedCSRPlane()
        try:
            generation = plane.publish(graph.csr())
            attachment = attach_plane_engine(plane.prefix, generation)
            try:
                serial = graph.csr()
                engine = attachment.catch_up(plane.log_length, plane.num_nodes)
                eff = float(graph.time + 1)
                ids = list(range(graph.num_interned))
                for seeds in ([ids[0]], ids[:5], ids[3:9]):
                    assert engine.reachable_ids(seeds, eff) == serial.reachable_ids(
                        seeds, None
                    )
                    assert engine.ancestor_ids(seeds, eff) == serial.ancestor_ids(
                        seeds, None
                    )
                sets = [(i,) for i in ids[:30]]
                assert engine.spread_counts(sets, eff) == serial.spread_counts(
                    sets, None
                )
            finally:
                attachment.detach()
        finally:
            plane.close()

    def test_generation_bumps_and_supersedes(self):
        graph = build_graph()
        plane = SharedCSRPlane()
        try:
            first = plane.publish(graph.csr())
            graph.advance_to(graph.time + 1)
            graph.add_interaction(Interaction("n0", "n1", graph.time, 10))
            second = plane.publish(graph.csr())
            assert second == first + 1
            # The superseded generation is unlinked; attaching it fails.
            with pytest.raises((RuntimeError, FileNotFoundError)):
                attach_plane_engine(plane.prefix, first)
            attachment = attach_plane_engine(plane.prefix, second)
            attachment.detach()
        finally:
            plane.close()

    def test_generation_skew_is_detected(self):
        graph = build_graph()
        plane = SharedCSRPlane()
        try:
            generation = plane.publish(graph.csr())
            with pytest.raises((RuntimeError, FileNotFoundError)):
                attach_plane_engine(plane.prefix, generation + 7)
        finally:
            plane.close()

    def test_close_unlinks_everything(self):
        graph = build_graph()
        plane = SharedCSRPlane()
        prefix = plane.prefix
        plane.publish(graph.csr())
        plane.close()
        plane.close()  # idempotent
        assert plane_segments(prefix) == []
        with pytest.raises(FileNotFoundError):
            attach_plane_engine(prefix, 1)

    def test_empty_graph_publishes(self):
        plane = SharedCSRPlane()
        try:
            generation = plane.publish(TDNGraph().csr())
            attachment = attach_plane_engine(plane.prefix, generation)
            try:
                assert attachment.engine.num_nodes == 0
                assert attachment.engine.spread_counts([], 1.0) == []
            finally:
                attachment.detach()
        finally:
            plane.close()


class TestPlaneEngine:
    def test_in_process_engine_matches_delta_csr(self):
        """PlaneEngine is pure over its arrays — no shm required."""
        graph = build_graph(seed=23)
        serial = graph.csr()
        from repro.tdn.csr import CSRSnapshot

        snapshot = CSRSnapshot.build(graph)
        engine = PlaneEngine(snapshot.indptr, snapshot.indices, snapshot.expiries)
        eff = float(graph.time + 1)
        ids = list(range(graph.num_interned))
        horizon = graph.time + 12
        assert engine.spread_counts(
            [(i,) for i in ids], max(float(horizon), eff)
        ) == serial.spread_counts([(i,) for i in ids], horizon)
        assert engine.reachable_ids(ids[:4], eff) == serial.reachable_ids(
            ids[:4], None
        )

    def test_out_of_range_ids_rejected(self):
        graph = build_graph(seed=5)
        from repro.tdn.csr import CSRSnapshot

        snapshot = CSRSnapshot.build(graph)
        engine = PlaneEngine(snapshot.indptr, snapshot.indices, snapshot.expiries)
        with pytest.raises(IndexError):
            engine.reachable_ids([graph.num_interned + 3], None)
        with pytest.raises(IndexError):
            engine.spread_counts([(-1,)], None)
