"""Outside-in span tracing for the benchmark's traced run.

The benchmark never edits the library to trace it.  Instead it replaces
the public entry points of each layer -- class methods and one module
attribute -- with thin wrappers that record a span per call, and puts the
original objects back; the traced run does this around every traced
step, so an untraced tracker can step in between.  A span records its
name, start, end and the span that was open when it started (its
parent).  Spans are kept in flat in-memory arrays and dumped as JSON when
the run ends.

A span's self time is its duration minus the durations of its child
spans, so the self times of all spans add up to the duration of the
outermost spans (``InfluenceTracker.step``) exactly.  Each wrapped entry
point is charged to one per-layer metric (:data:`SPANS`); the benchmark
loop's own work between steps is ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped entry points: (module, class or None for a module attribute,
#: attribute, the self-time metric the span is charged to).  The kernel's
#: ``reachable_count`` runs its vectorised sweep inline (below the cutover
#: it calls ``reach_scalar`` instead), so its self time is vector-path
#: time.  ``changed_nodes`` is wrapped where SieveADN looks it up:
#: ``repro.core.sieve_adn`` imports it by name.
_GRAPH = ("repro.tdn.graph", "TDNGraph")
_ORACLE = ("repro.influence.oracle", "InfluenceOracle")
_KERNEL = ("repro.kernels.traversal", "TraversalKernel")
_EXECUTOR = ("repro.parallel.executor", "ShardedOracleExecutor")
SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.tracker", "InfluenceTracker", "step", "core.self_s"),
    (*_GRAPH, "add_interaction", "tdn.ingest_s"),
    (*_GRAPH, "advance_to", "tdn.expire_s"),
    (*_GRAPH, "csr", "tdn.csr_sync_s"),
    ("repro.core.sieve_adn", None, "changed_nodes", "changed.sweep_s"),
    (*_ORACLE, "spread", "oracle.protocol_s"),
    (*_ORACLE, "spread_many", "oracle.protocol_s"),
    (*_ORACLE, "sync_dirty", "oracle.sync_s"),
    (*_KERNEL, "reach_scalar", "kernel.scalar_s"),
    (*_KERNEL, "reach_vector", "kernel.vector_s"),
    (*_KERNEL, "reachable_count", "kernel.vector_s"),
    (*_KERNEL, "spread_counts", "kernel.bitplane_s"),
    (*_EXECUTOR, "spread_counts", "executor.dispatch_s"),
    (*_EXECUTOR, "reachable_ids_many", "executor.dispatch_s"),
    (*_EXECUTOR, "weighted_spread_sums", "executor.dispatch_s"),
    (*_EXECUTOR, "fold_spread_sums", "executor.dispatch_s"),
    (*_EXECUTOR, "ancestor_ids", "executor.dispatch_s"),
    (*_EXECUTOR, "touched_cone_ids", "executor.dispatch_s"),
    (*_EXECUTOR, "ensure_plane", "executor.publish_s"),
)

#: Spans that also record the length of their first argument (sets).
SIZED_SPANS = ("InfluenceOracle.spread_many", "TraversalKernel.spread_counts")

#: Kernel entry points that either run their own sweep or dispatch to
#: ``reach_scalar``; the self time of their scalar-path calls is charged
#: to ``kernel.scalar_s`` instead of their own metric.
SCALAR_DISPATCH = (
    ("TraversalKernel.reachable_count", "kernel.vector_s"),
    ("TraversalKernel.spread_counts", "kernel.bitplane_s"),
)

#: Count-only wrappers (no span): SieveADN batches and their candidates.
COUNTED = (("repro.core.sieve_adn", "SieveADN", "process_candidates"),)

#: Every self-time metric; with ``trace.unattributed_s`` they sum to
#: ``trace.wall_s``.
SELF_TIME_METRICS = tuple(dict.fromkeys(metric for *_, metric in SPANS))

PLANE_WIDTH = 64


def span_name(owner: Optional[str], attribute: str) -> str:
    return attribute if owner is None else f"{owner}.{attribute}"


def _first_arg_len(args: tuple) -> int:
    return len(args[1]) if len(args) > 1 else 0


class SpanRecorder:
    """Installs layer wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.items = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, List[int]] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        #: (target, attribute, had own attribute, original, wrapper)
        self._patches: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS` and :data:`COUNTED`.

        The wrappers are built on the first call and reused, so the traced
        run can install and restore them around every step.
        """
        if self._patches is None:
            self._patches = []
            for module, owner, attribute, _ in SPANS:
                target = self._resolve(module, owner, attribute)
                if target is not None:
                    name = span_name(owner, attribute)
                    sized = _first_arg_len if name in SIZED_SPANS else None
                    self._plan(target, attribute, self._span_wrapper(name, sized))
            for module, owner, attribute in COUNTED:
                target = self._resolve(module, owner, attribute)
                if target is not None:
                    tally = self.counts.setdefault(span_name(owner, attribute), [0, 0])
                    self._plan(target, attribute, _count_wrapper(tally))
        for target, attribute, _, _, wrapper in self._patches:
            setattr(target, attribute, wrapper)

    def restore(self) -> None:
        """Put every original object back (no-op when nothing is installed)."""
        for target, attribute, had_own, original, _ in reversed(self._patches or ()):
            if had_own:
                setattr(target, attribute, original)
            elif attribute in vars(target):
                delattr(target, attribute)

    def _resolve(self, module: str, owner: Optional[str], attribute: str):
        """The object holding ``attribute``, or None when the layer lacks it."""
        try:
            target = importlib.import_module(module)
        except ImportError:
            target = None
        if target is not None and owner is not None:
            target = getattr(target, owner, None)
        if target is None or not hasattr(target, attribute):
            self.missing.append(f"{module}.{span_name(owner, attribute)}")
            return None
        return target

    def _plan(self, target, attribute: str, make: Callable) -> None:
        own = vars(target)
        wrapper = make(getattr(target, attribute))
        self._patches.append(
            (target, attribute, attribute in own, own.get(attribute), wrapper)
        )

    def _span_wrapper(self, name: str, sized: Optional[Callable]) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, parents, items = self.name, self.parent, self.items
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1] if stack else -1)
                items.append(sized(args) if sized is not None else 0)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

            return wrapper

        return make

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, dict]:
        """Per span name: self time, calls, sizes, and the non-scalar split.

        ``plain_*`` count the calls that ran no ``reach_scalar`` child --
        for the kernel's ``reachable_count`` and ``spread_counts`` those
        are the vector and bit-plane paths.
        """
        count = len(self.start)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        child = [0.0] * count
        scalar_id = (
            self.names.index("TraversalKernel.reach_scalar")
            if "TraversalKernel.reach_scalar" in self.names
            else -1
        )
        scalar_parents = set()
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
                if names[index] == scalar_id:
                    scalar_parents.add(parent)
        keys = ("calls", "items", "plain_calls", "plain_items", "plain_planes")
        stats: Dict[str, dict] = {
            name: dict({"self_s": 0.0, "plain_self_s": 0.0}, **dict.fromkeys(keys, 0))
            for name in self.names
        }
        for index in range(count):
            entry = stats[self.names[names[index]]]
            size = self.items[index]
            self_s = ends[index] - starts[index] - child[index]
            entry["self_s"] += self_s
            entry["calls"] += 1
            entry["items"] += size
            if index not in scalar_parents:
                entry["plain_self_s"] += self_s
                entry["plain_calls"] += 1
                entry["plain_items"] += size
                entry["plain_planes"] += math.ceil(size / PLANE_WIDTH)
        return stats

    def covered_s(self) -> float:
        """Time inside outermost spans; every span's self time adds up to it."""
        starts, ends, parents = self.start, self.end, self.parent
        return sum(ends[i] - starts[i] for i in range(len(starts)) if parents[i] < 0)

    def dump(self, path: str) -> None:
        """Write every span as columnar JSON (times in ns from the first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        document = {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": [round((value - origin) * 1e9) for value in self.start],
            "end_ns": [round((value - origin) * 1e9) for value in self.end],
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _count_wrapper(tally: List[int]) -> Callable:
    """Count calls and candidates of ``process_candidates(self, candidates)``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(instance, candidates, *args, **kwargs):
            candidates = list(candidates)
            tally[0] += 1
            tally[1] += len(candidates)
            return fn(instance, candidates, *args, **kwargs)

        return wrapper

    return make


def layer_metrics(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Per-layer self times and span-derived counts of one traced run."""
    stats = recorder.self_times()
    metrics: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    for _, owner, attribute, metric in SPANS:
        entry = stats.get(span_name(owner, attribute))
        if entry is not None:
            metrics[metric] += entry["self_s"]
    # Calls that took the scalar path are scalar-path time, dispatch included.
    for name, metric in SCALAR_DISPATCH:
        entry = stats.get(name)
        if entry is not None:
            moved = entry["self_s"] - entry["plain_self_s"]
            metrics[metric] -= moved
            metrics["kernel.scalar_s"] += moved

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    changed_calls = stat("changed_nodes", "calls")
    batches, candidates = recorder.counts.get("SieveADN.process_candidates", [0, 0])
    spread_many_calls = stat("InfluenceOracle.spread_many", "calls")
    bitplane = "TraversalKernel.spread_counts"
    planes = stat(bitplane, "plain_planes")
    metrics.update(
        {
            "changed.calls": changed_calls,
            "changed.candidates_per_batch": candidates / batches if batches else 0.0,
            "changed.cone_reuse_ratio": (
                1.0 - changed_calls / batches if batches else 0.0
            ),
            "oracle.spread_many_calls": spread_many_calls,
            "oracle.sets_per_call": (
                stat("InfluenceOracle.spread_many", "items") / spread_many_calls
                if spread_many_calls
                else 0.0
            ),
            "kernel.scalar_calls": stat("TraversalKernel.reach_scalar", "calls"),
            "kernel.vector_calls": stat("TraversalKernel.reach_vector", "calls")
            + stat("TraversalKernel.reachable_count", "plain_calls"),
            "kernel.bitplane_calls": stat(bitplane, "plain_calls"),
            "kernel.plane_fill": (
                stat(bitplane, "plain_items") / (PLANE_WIDTH * planes)
                if planes
                else 0.0
            ),
            "trace.unattributed_s": wall_s - recorder.covered_s(),
            "trace.wall_s": wall_s,
        }
    )
    return metrics
