"""Round-trip tests for checkpoint/restore.

The gold standard: a run that checkpoints halfway and resumes must produce
exactly the same solutions and values as an uninterrupted run.
"""

import json
import math
import random

import pytest

from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.api import open_tracker
from repro.errors import PersistenceError, ReproError, UnsupportedCheckpointError
from repro.influence.oracle import InfluenceOracle
from repro.persistence import (
    algorithm_from_dict,
    algorithm_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.stream import MemoryStream


def random_events(seed, steps=12, num_nodes=8, max_lifetime=6, infinite_fraction=0.1):
    rng = random.Random(seed)
    events = []
    for t in range(steps):
        for _ in range(rng.randint(1, 3)):
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u == v:
                continue
            if rng.random() < infinite_fraction:
                lifetime = None
            else:
                lifetime = rng.randint(1, max_lifetime)
            events.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
    return events


class TestGraphRoundTrip:
    def test_alive_state_preserved(self):
        events = random_events(1)
        graph = TDNGraph()
        for t, batch in MemoryStream(events, fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.time == graph.time
        assert restored.num_edges == graph.num_edges
        assert restored.node_set() == graph.node_set()
        assert sorted(restored.alive_pairs()) == sorted(graph.alive_pairs())

    def test_expiries_preserved(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction("a", "b", 0, 3))
        graph.add_interaction(Interaction("a", "b", 0, 7))
        graph.add_interaction(Interaction("c", "d", 0))  # infinite
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.max_expiry("a", "b") == 7
        assert restored.max_expiry("c", "d") == math.inf
        assert restored.interaction_count("a", "b") == 2
        # Future expiries behave identically.
        graph.advance_to(3)
        restored.advance_to(3)
        assert restored.interaction_count("a", "b") == graph.interaction_count("a", "b")

    def test_unserializable_label_rejected(self):
        graph = TDNGraph()
        graph.add_interaction(Interaction(("tuple", "label"), "b", 0, 3))
        with pytest.raises(TypeError, match="not JSON-serializable"):
            graph_to_dict(graph)


@pytest.mark.parametrize(
    "factory",
    [
        lambda graph: SieveADN(2, 0.1, graph),
        lambda graph: BasicReduction(2, 0.1, 6, graph),
        lambda graph: HistApprox(2, 0.1, graph),
        lambda graph: HistApprox(2, 0.1, graph, refine_head=True),
    ],
    ids=["sieve-adn", "basic-reduction", "hist-approx", "hist-refined"],
)
class TestResumeEquivalence:
    def test_resumed_run_matches_uninterrupted(self, factory, tmp_path):
        """Checkpoint halfway, restore, finish: identical query results."""
        probe = factory(TDNGraph())
        is_sieve = isinstance(probe, SieveADN)
        allows_infinite = isinstance(probe, (SieveADN, HistApprox))
        events = random_events(7, infinite_fraction=0.1 if allows_infinite else 0.0)
        if is_sieve:
            events = [e.with_lifetime(None) for e in events]
        batches = list(MemoryStream(events, fill_gaps=True))
        half = len(batches) // 2

        # Uninterrupted reference run.
        graph_ref = TDNGraph()
        algo_ref = factory(graph_ref)
        for t, batch in batches:
            graph_ref.advance_to(t)
            graph_ref.add_batch(batch)
            algo_ref.on_batch(t, batch)

        # Interrupted run: process half, checkpoint, restore, finish.
        graph_a = TDNGraph()
        algo_a = factory(graph_a)
        for t, batch in batches[:half]:
            graph_a.advance_to(t)
            graph_a.add_batch(batch)
            algo_a.on_batch(t, batch)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, graph_a, algo_a)
        graph_b, algo_b = load_checkpoint(path)
        for t, batch in batches[half:]:
            graph_b.advance_to(t)
            graph_b.add_batch(batch)
            algo_b.on_batch(t, batch)

        assert algo_b.query().value == algo_ref.query().value
        assert algo_b.query().nodes == algo_ref.query().nodes

    def test_dict_round_trip_preserves_query(self, factory, tmp_path):
        is_sieve = isinstance(factory(TDNGraph()), SieveADN)
        events = random_events(9, infinite_fraction=0.0)
        if is_sieve:
            events = [e.with_lifetime(None) for e in events]
        graph = TDNGraph()
        algorithm = factory(graph)
        for t, batch in MemoryStream(events, fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
            algorithm.on_batch(t, batch)
        restored_graph = graph_from_dict(graph_to_dict(graph))
        restored = algorithm_from_dict(algorithm_to_dict(algorithm), restored_graph)
        assert restored.query().value == algorithm.query().value
        assert restored.query().nodes == algorithm.query().nodes


class TestOracleConfigRoundTrip:
    def test_memo_mode_and_backend_survive_restore(self):
        """A payload written before the CSR and memo modes were retired
        still loads: both fields are ignored, the rest of the oracle
        configuration survives, and the restored answer is unchanged."""
        graph = TDNGraph()
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        oracle = InfluenceOracle(graph, backend="dict", max_cache_entries=17)
        sieve = SieveADN(2, 0.2, graph, oracle)
        sieve.on_batch(0, batch)
        payload = algorithm_to_dict(sieve)
        assert payload["oracle"] == {
            "backend": "dict",
            "max_cache_entries": 17,
            "workers": 1,
        }
        graph_payload = graph_to_dict(graph)
        assert "csr_mode" not in graph_payload
        # The same checkpoint as the previous format wrote it.
        graph_payload["csr_mode"] = "rebuild"
        payload["oracle"]["memo_mode"] = "version"
        restored_graph = graph_from_dict(graph_payload)
        restored = algorithm_from_dict(payload, restored_graph)
        assert restored.oracle.backend == "dict"
        assert restored.oracle.max_cache_entries == 17
        assert restored.query() == sieve.query()

    def test_missing_oracle_config_defaults(self):
        """Checkpoints predating oracle serialization restore with defaults."""
        graph = TDNGraph()
        batch = [Interaction("a", "b", 0, 9)]
        graph.add_batch(batch)
        sieve = SieveADN(2, 0.2, graph)
        sieve.on_batch(0, batch)
        payload = algorithm_to_dict(sieve)
        del payload["oracle"]
        restored = algorithm_from_dict(payload, graph_from_dict(graph_to_dict(graph)))
        assert restored.oracle.backend == "csr"
        assert restored.oracle.max_cache_entries == 200_000
        assert restored.oracle.semantics == "count"

    def test_shared_oracle_config_on_composite_algorithms(self):
        graph = TDNGraph()
        oracle = InfluenceOracle(graph, max_cache_entries=17)
        hist = HistApprox(2, 0.2, graph, oracle)
        batch = [Interaction("a", "b", 0, 3)]
        graph.add_batch(batch)
        hist.on_batch(0, batch)
        payload = algorithm_to_dict(hist)
        restored = algorithm_from_dict(payload, graph_from_dict(graph_to_dict(graph)))
        assert restored.oracle.max_cache_entries == 17
        # Instances share the one restored oracle.
        assert all(
            inst.oracle is restored.oracle for inst in restored._instances.values()
        )


class TestWeightedCheckpoint:
    """Node weights are never serialized, so a ``weighted_sum`` checkpoint
    must not resume as a plain count oracle."""

    WEIGHTS = {"a": 100.0, "b": 5.0}

    def weighted_run(self):
        rng = random.Random(5)
        graph = TDNGraph()
        oracle = InfluenceOracle(graph, semantics="weighted_sum", weights=self.WEIGHTS)
        hist = HistApprox(2, 0.1, graph, oracle)
        for t in range(19):
            batch = [
                Interaction(*rng.sample("abcdef", 2), t, rng.randint(2, 8))
                for _ in range(2)
            ]
            graph.advance_to(t)
            graph.add_batch(batch)
            hist.on_batch(t, batch)
        return graph, hist

    def test_load_without_an_injected_oracle_is_refused(self, tmp_path):
        graph, hist = self.weighted_run()
        path = tmp_path / "weighted.json"
        save_checkpoint(path, graph, hist)
        payload = algorithm_to_dict(hist)
        assert payload["oracle"]["semantics"] == ["weighted_sum", {}]
        with pytest.raises(
            PersistenceError, match=r"algorithm_from_dict\(\.\.\., oracle="
        ):
            load_checkpoint(path)

    def test_injected_weighted_oracle_matches_the_live_run(self):
        graph, hist = self.weighted_run()
        live = hist.query()
        assert live.value > len(graph.node_set())  # the weights count
        restored_graph = graph_from_dict(graph_to_dict(graph))
        restored = algorithm_from_dict(
            algorithm_to_dict(hist),
            restored_graph,
            oracle=InfluenceOracle(
                restored_graph, semantics="weighted_sum", weights=self.WEIGHTS
            ),
        )
        assert restored.query() == live


def _tag_changed_mode(payload, top, nested):
    """Write the ``changed_mode`` key older builds put in every payload."""
    payload["changed_mode"] = top
    for row in payload.get("instances", ()):
        row["state"]["changed_mode"] = nested


def _run(algorithm, graph, batches):
    for t, batch in batches:
        graph.advance_to(t)
        graph.add_batch(batch)
        algorithm.on_batch(t, batch)


@pytest.mark.parametrize(
    "factory",
    [
        lambda graph: SieveADN(2, 0.1, graph),
        lambda graph: BasicReduction(2, 0.1, 6, graph),
        lambda graph: HistApprox(2, 0.1, graph),
    ],
    ids=["sieve-adn", "basic-reduction", "hist-approx"],
)
class TestRetiredChangedMode:
    """Payloads name the changed-node rule; only ``"ancestors"`` is left."""

    def _batches(self, factory):
        events = random_events(11, infinite_fraction=0.0)
        if isinstance(factory(TDNGraph()), SieveADN):
            events = [e.with_lifetime(None) for e in events]
        return list(MemoryStream(events, fill_gaps=True))

    def test_ancestors_payload_loads_and_resumes(self, factory, tmp_path):
        batches = self._batches(factory)
        half = len(batches) // 2
        graph_ref = TDNGraph()
        reference = factory(graph_ref)
        _run(reference, graph_ref, batches)

        graph = TDNGraph()
        algorithm = factory(graph)
        _run(algorithm, graph, batches[:half])
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, graph, algorithm)
        payload = json.loads(path.read_text())
        assert "changed_mode" not in payload["algorithm"]
        _tag_changed_mode(payload["algorithm"], "ancestors", "ancestors")
        path.write_text(json.dumps(payload))
        graph_b, resumed = load_checkpoint(path)
        _run(resumed, graph_b, batches[half:])
        assert resumed.query() == reference.query()

    def test_sources_is_refused_at_any_level(self, factory):
        graph = TDNGraph()
        algorithm = factory(graph)
        _run(algorithm, graph, self._batches(factory))
        tags = [("sources", "ancestors")]
        if not isinstance(algorithm, SieveADN):
            tags.append(("ancestors", "sources"))  # a nested instance only
        for top, nested in tags:
            payload = algorithm_to_dict(algorithm)
            _tag_changed_mode(payload, top, nested)
            restored = graph_from_dict(graph_to_dict(graph))
            with pytest.raises(PersistenceError, match="changed_mode 'sources'"):
                algorithm_from_dict(payload, restored)


class TestErrorHandling:
    def test_unknown_algorithm_type(self):
        with pytest.raises(ValueError, match="unknown serialized algorithm"):
            algorithm_from_dict({"type": "Mystery", "format_version": 1}, TDNGraph())

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            load_checkpoint(path)

    def test_unserializable_label_is_a_typed_error(self, tmp_path):
        graph = TDNGraph()
        graph.add_interaction(Interaction(("a", 1), "b", 0, 3))
        with pytest.raises(UnsupportedCheckpointError, match="not JSON-serializable"):
            save_checkpoint(tmp_path / "c.json", graph, SieveADN(2, 0.1, graph))
        assert list(tmp_path.iterdir()) == []

    def _saved(self, tmp_path):
        graph = TDNGraph()
        algorithm = HistApprox(2, 0.1, graph)
        _run(algorithm, graph, MemoryStream(random_events(3), fill_gaps=True))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, graph, algorithm)
        return path

    def test_truncated_file_raises_persistence_error(self, tmp_path):
        path = self._saved(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PersistenceError, match="not JSON"):
            load_checkpoint(path)

    def test_missing_key_raises_persistence_error(self, tmp_path):
        path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        del payload["algorithm"]["instances"][0]["state"]["thresholds"]
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="thresholds"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A write that dies mid-dump leaves the old file byte-identical."""
        graph = TDNGraph()
        algorithm = SieveADN(2, 0.1, graph)
        for t, batch in MemoryStream(random_events(3), fill_gaps=True):
            graph.advance_to(t)
            graph.add_batch(batch)
            algorithm.on_batch(t, batch)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, graph, algorithm)
        before = path.read_bytes()

        def torn_dump(payload, handle, **kwargs):
            handle.write('{"format_version": ')
            raise OSError("disk full")

        graph.advance_to(graph.time + 1)
        graph.add_interaction(Interaction("n0", "n9", graph.time, None))
        monkeypatch.setattr("repro.persistence.json.dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, graph, algorithm)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_unserializable_algorithm(self):
        from repro.baselines.random_baseline import RandomBaseline

        with pytest.raises(TypeError, match="cannot serialize"):
            algorithm_to_dict(RandomBaseline(2, TDNGraph()))

    @pytest.mark.parametrize(
        "name, label",
        [
            ("greedy", "Greedy"),
            ("trend", "Trend"),
            ("decayed-centrality", "DecayedCentrality"),
        ],
    )
    def test_unsupported_tracker_raises_before_any_write(
        self, tmp_path, monkeypatch, name, label
    ):
        tracker = open_tracker(name, k=2)

        def no_open(*args, **kwargs):
            raise AssertionError("save_checkpoint opened a file")

        monkeypatch.setattr("repro.persistence.open", no_open, raising=False)
        try:
            with pytest.raises(
                UnsupportedCheckpointError, match=f"the {label} algorithm"
            ) as raised:
                save_checkpoint(
                    tmp_path / "checkpoint.json", tracker.graph, tracker.algorithm
                )
        finally:
            tracker.close()
        assert isinstance(raised.value, TypeError)
        assert isinstance(raised.value, ReproError)
        assert list(tmp_path.iterdir()) == []


SHARDED_FACTORIES = {
    "sieve-adn": lambda graph, oracle: SieveADN(3, 0.2, graph, oracle),
    "basic-reduction": lambda graph, oracle: BasicReduction(
        3, 0.2, 12, graph, oracle
    ),
    "hist-approx": lambda graph, oracle: HistApprox(3, 0.2, graph, oracle),
}


@pytest.mark.parametrize("name", sorted(SHARDED_FACTORIES))
def test_sharded_checkpoint_resumes_on_the_thread_executor(name, tmp_path):
    """A ``workers=2`` checkpoint restores onto a two-thread executor and
    the resumed run matches an uninterrupted one step for step:
    solutions, values and oracle calls.  The memo is off on both sides
    (``max_cache_entries=0``, which the checkpoint carries), so the
    restored oracle's cold memo cannot shift the call accounting."""
    factory = SHARDED_FACTORIES[name]
    rng = random.Random(11)
    batches = []
    for t in range(20):
        batch = []
        for _ in range(8):  # wide batches, so sweeps reach the shard floor
            u, v = rng.sample(range(24), 2)
            lifetime = None if name == "sieve-adn" else rng.randint(3, 10)
            batch.append(Interaction(f"n{u}", f"n{v}", t, lifetime))
        batches.append((t, batch))
    half = len(batches) // 2

    def run(algorithm, graph, part):
        trace = []
        calls = algorithm.oracle.calls
        for t, batch in part:
            graph.advance_to(t)
            graph.add_batch(batch)
            algorithm.on_batch(t, batch)
            solution = algorithm.query()
            spent = algorithm.oracle.calls - calls
            trace.append((tuple(solution.nodes), solution.value, spent))
        return trace

    graph_ref = TDNGraph()
    ref = factory(
        graph_ref, InfluenceOracle(graph_ref, max_cache_entries=0, parallel=2)
    )
    run(ref, graph_ref, batches[:half])
    reference = run(ref, graph_ref, batches[half:])
    ref.oracle.close()

    graph_a = TDNGraph()
    algo_a = factory(
        graph_a, InfluenceOracle(graph_a, max_cache_entries=0, parallel=2)
    )
    run(algo_a, graph_a, batches[:half])
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, graph_a, algo_a)
    algo_a.oracle.close()

    graph_b, algo_b = load_checkpoint(path)
    executor = algo_b.oracle.executor
    assert executor is not None and executor.workers == 2
    try:
        assert run(algo_b, graph_b, batches[half:]) == reference
        report = executor.health_report()
        assert report["mode"] == "threads" and report["state"] == "sharded"
        assert report["plane_generation"] > 0  # the shard threads ran
        assert report["incidents"] == {}
    finally:
        algo_b.oracle.close()
