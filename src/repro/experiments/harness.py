"""The side-by-side tracking harness.

One stream, one shared TDN, many algorithms: the harness advances the clock,
inserts each batch once, then lets every algorithm observe it with its own
oracle counter and its own wall-clock bucket.  This mirrors the paper's
experimental protocol (all methods see the identical lifetimed stream) and
makes the cross-method ratios of Figs. 7-14 well defined.

Algorithms are supplied as *factories* ``(graph) -> TrackingAlgorithm`` so
each run builds fresh state against the shared graph; the harness wires a
fresh counted oracle into each unless the factory sets its own.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.tracker import TrackingAlgorithm
from repro.experiments.metrics import AlgorithmSeries
from repro.influence.oracle import InfluenceOracle
from repro.tdn.batch import EdgeBatch
from repro.tdn.graph import TDNGraph
from repro.tdn.lifetimes import LifetimePolicy
from repro.tdn.stream import InteractionStream

AlgorithmFactory = Callable[[TDNGraph], TrackingAlgorithm]


@dataclass
class TrackingReport:
    """Everything measured during one harness run.

    Attributes:
        series: per-algorithm measurement series, keyed by the names the
            caller supplied.
        num_steps: number of stream batches replayed.
        num_events: total interactions ingested.
        final_nodes: final solution node set per algorithm.
    """

    series: Dict[str, AlgorithmSeries] = field(default_factory=dict)
    num_steps: int = 0
    num_events: int = 0
    final_nodes: Dict[str, tuple] = field(default_factory=dict)

    def __getitem__(self, name: str) -> AlgorithmSeries:
        return self.series[name]

    def names(self) -> List[str]:
        """Algorithm names in insertion order."""
        return list(self.series)


def run_tracking(
    stream: InteractionStream,
    algorithms: Mapping[str, AlgorithmFactory],
    *,
    lifetime_policy: Optional[LifetimePolicy] = None,
    query_interval: int = 1,
    max_steps: Optional[int] = None,
    graph: Optional[TDNGraph] = None,
) -> TrackingReport:
    """Replay ``stream`` into all ``algorithms`` side by side.

    Args:
        stream: chronological interaction stream (lifetimes are assigned by
            ``lifetime_policy`` for interactions lacking one).
        algorithms: ordered mapping name -> factory.
        lifetime_policy: default lifetime assignment; sampling happens once
            per interaction, so every algorithm sees identical lifetimes.
        query_interval: query (and record) every this-many batches; the
            final batch is always recorded so summary statistics exist.
        max_steps: truncate the stream after this many batches.
        graph: pre-existing shared graph (a fresh one by default).

    Returns:
        A :class:`TrackingReport` with one series per algorithm.
    """
    if query_interval < 1:
        raise ValueError(f"query_interval must be >= 1, got {query_interval}")
    shared_graph = graph if graph is not None else TDNGraph()
    instances: Dict[str, TrackingAlgorithm] = {}
    wall: Dict[str, float] = {}
    for name, factory in algorithms.items():
        instance = factory(shared_graph)
        if getattr(instance, "oracle", None) is None:
            instance.oracle = InfluenceOracle(shared_graph)
        instances[name] = instance
        wall[name] = 0.0
    report = TrackingReport(series={name: AlgorithmSeries(name) for name in instances})

    batches = list(stream if max_steps is None else stream.take(max_steps))
    events_seen = 0
    for index, (t, batch) in enumerate(batches):
        shared_graph.advance_to(t)
        if lifetime_policy is not None:
            batch = [
                i if i.lifetime is not None else lifetime_policy.assign(i)
                for i in batch
            ]
        # One set of columns for the graph and every algorithm.
        batch = EdgeBatch.from_rows(t, batch)
        shared_graph.add_batch(batch)
        events_seen += len(batch)
        is_query_point = (index % query_interval == 0) or (index == len(batches) - 1)
        for name, instance in instances.items():
            started = _time.perf_counter()
            instance.on_batch(t, batch)
            if is_query_point:
                solution = instance.query()
            wall[name] += _time.perf_counter() - started
            if is_query_point:
                report.series[name].record(
                    t=t,
                    value=solution.value,
                    calls=instance.oracle.calls,
                    wall=wall[name],
                    edges=events_seen,
                )
                report.final_nodes[name] = solution.nodes
        report.num_steps = index + 1
    report.num_events = events_seen
    return report
