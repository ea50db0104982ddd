"""Sharded oracle executor: batched sweeps split across a thread pool.

:class:`ShardedOracleExecutor` partitions the oracle's batched sweeps —
``spread_many`` bit-plane batches, the weighted and fold bit-plane sums
and per-set reachable-id evaluations (weight callables) — across a
``ThreadPoolExecutor``.  Every shard sweeps its own clone of the graph's
current kernel (:meth:`ShardedOracleExecutor.ensure_plane`): the clones
share the engine's CSR arrays, arrival log and resolved backend but own
their visited buffers, so there is no spawn, no copy of the graph and no
pickling.  Shards overlap on separate cores where the kernel releases
the GIL (the jitted native loops, numpy's array kernels).

A shard never adds a physical sweep.  One bit-plane sweep carries up to
:data:`~repro.kernels.PLANE_WIDTH` (64) sets, so every request is cut at
multiples of 64 (:func:`shard_slices`): ``n`` sets become
``min(workers, ceil(n / 64))`` shards of whole 64-set chunks, and a
request of 64 sets or fewer is one shard, swept once, as the serial
engine does.  Reverse (ancestor) sweeps are never sent here: the memo's
dirty cone and SIEVEADN's changed-node set each run the engine's own
:meth:`~repro.tdn.csr.DeltaCSR.ancestor_ids` on the caller's thread,
whatever the worker count.  :meth:`ShardedOracleExecutor.ancestor_ids`
and :meth:`ShardedOracleExecutor.touched_cone_ids` remain as direct
entry points (their seed lists are cut by the same rule); no library
path calls them.

Correctness contract
--------------------
Sharding is *value-transparent*: per-set spread counts are independent, so
splitting a batch into contiguous slices and splicing the per-shard
results back in submission order reproduces the serial output exactly;
and reachability distributes over seed union (``ancestors(A | B) =
ancestors(A) | ancestors(B)``), so shard-merged ancestor sweeps equal the
single sweep.  A shard that raises — or misses the whole-request
deadline — is recomputed serially *for that shard only* through the
graph's own engine, the same :class:`~repro.kernels.TraversalKernel`
physics, and recorded as a ``THREAD_ERROR`` incident; the executor stays
sharded.  Oracle *call accounting* lives entirely in the oracle layer and
is never touched here.  The equivalence suite pins all three trackers to
bit-identical solutions, values and call counts under ``workers=2``; the
chaos suite (:mod:`tests.parallel.test_faults`) pins the same bar under
seeded shard failures.

Lifecycle
---------
The thread pool starts on the first request large enough to shard and
is shut down by :meth:`ShardedOracleExecutor.close`.  A single-worker
executor is serial by construction (state ``halted``, reason
``SINGLE_WORKER``); a closed one keeps answering serially (reason
``CLOSED``).  Neither ever shards again.  Absorbed shard failures are
counted, and the first one in any :data:`WARN_INTERVAL` seconds raises a
``RuntimeWarning`` (:meth:`ShardedOracleExecutor.health_report`).
"""

from __future__ import annotations

import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
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

from repro.errors import check_workers
from repro.kernels import PLANE_WIDTH, Fold, resolve_fold
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.parallel.faults import FaultInjected, FaultPlan

__all__ = [
    "ShardedOracleExecutor",
    "merge_shard_counts",
    "shard_slices",
]

#: Default per-request floor below which sharding is not worth the
#: thread hand-off.
DEFAULT_MIN_BATCH = 8

#: Default seconds to wait for one shard before recomputing it serially.
RESULT_TIMEOUT = 60.0

#: Least seconds between two shard-failure warnings from one executor.
WARN_INTERVAL = 300.0

_DISPATCHES = metrics_registry().counter(metric_names.EXECUTOR_DISPATCHES_TOTAL)
_SHARD_LATENCY = metrics_registry().histogram(
    metric_names.EXECUTOR_SHARD_LATENCY_SECONDS
)
_SERIAL_FALLBACKS = metrics_registry().counter(
    metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL
)
# Bumped once per shard fallback and once at close, so the registry and
# health_report() count the same events.
_TRANSITIONS = metrics_registry().counter(
    metric_names.DEGRADATION_TRANSITIONS_TOTAL
)
_INCIDENTS = metrics_registry().counter(metric_names.DEGRADATION_INCIDENTS_TOTAL)


def shard_slices(num_items: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` slices of whole :data:`PLANE_WIDTH` chunks.

    A sweep packs up to :data:`PLANE_WIDTH` sets into one physical
    traversal, so a slice boundary anywhere but a chunk edge would add a
    sweep.  The ``ceil(num_items / PLANE_WIDTH)`` chunks are dealt to
    ``min(num_shards, chunks)`` slices whose chunk counts differ by at
    most one; only the last slice may end in a partial chunk.  Pure so
    the hypothesis shard-merge property can drive it directly.
    """
    if num_items <= 0 or num_shards <= 0:
        return []
    chunks = -(-num_items // PLANE_WIDTH)
    num_shards = min(num_shards, chunks)
    base, extra = divmod(chunks, num_shards)
    slices = []
    start = 0
    for shard in range(num_shards):
        width = (base + (1 if shard < extra else 0)) * PLANE_WIDTH
        stop = min(num_items, start + width)
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
    """Partition batched oracle sweeps across a thread pool.

    Args:
        workers: thread count, an int >= 1.  ``1`` means serial (no pool;
            the executor is then a thin pass-through to the graph's own
            engine).
        min_batch: smallest batch (or reverse-sweep seed set) that is
            sharded; smaller requests are served serially (values are
            identical either way).
        result_timeout: seconds to wait for one shard before recomputing
            it serially (default :data:`RESULT_TIMEOUT`).
        fault_plan: injected fault schedule (chaos tests); defaults to
            :meth:`FaultPlan.from_env` (``REPRO_FAULTS``), i.e. no faults.
    """

    def __init__(
        self,
        workers: int,
        *,
        min_batch: int = DEFAULT_MIN_BATCH,
        result_timeout: float = RESULT_TIMEOUT,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        # The pool slot exists before any validation so close() is safe
        # even on a half-constructed instance.
        self._pool: Optional[ThreadPoolExecutor] = None
        self.workers = check_workers(workers)
        self.min_batch = max(1, min_batch)
        self.result_timeout = max(1.0, result_timeout)
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        # Per direction: (graph weakref, graph version, clones).  A weakref,
        # not id(): CPython reuses id()s after collection, and clones
        # served for a look-alike graph would be silently wrong.
        self._clones: Dict[
            bool, Tuple[weakref.ref, int, List["TraversalKernel"]]
        ] = {}
        self._clone_cuts = 0
        # Open with more than one worker; cleared for good by close().
        self._sharding = workers > 1
        self._thread_errors = 0
        self._warned_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Health surface
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> Optional[str]:
        """None while sharded, else why requests are served serially."""
        if self._sharding:
            return None
        return "SINGLE_WORKER" if self.workers == 1 else "CLOSED"

    @property
    def pool_running(self) -> bool:
        """Whether the shard threads have been started and may serve."""
        return self._pool is not None

    def health_report(self) -> Dict[str, object]:
        """Inspectable snapshot of the executor's state.

        Keys: ``state`` (``"sharded"`` while open with more than one
        worker, else ``"halted"``), ``reason`` (None, ``"SINGLE_WORKER"``
        or ``"CLOSED"``), ``incidents`` (``{"THREAD_ERROR": n}`` once a
        shard has failed, else ``{}``), ``workers``, ``mode`` (always
        ``"threads"``) and ``plane_generation`` (how many times
        :meth:`ensure_plane` cut fresh kernel clones: once per graph
        version and sweep direction that was sharded).
        """
        return {
            "state": "sharded" if self._sharding else "halted",
            "reason": self.degraded,
            "incidents": (
                {"THREAD_ERROR": self._thread_errors} if self._thread_errors else {}
            ),
            "workers": self.workers,
            "mode": "threads",
            "plane_generation": self._clone_cuts,
        }

    def close(self) -> None:
        """Stop the shard threads (idempotent); later requests run serially.

        Safe to call twice and on an instance whose ``__init__`` failed.
        """
        if not hasattr(self, "_sharding"):  # __init__ died before any state
            return
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._clones = {}
        if self._sharding:
            self._sharding = False
            _INCIDENTS.inc()
            _TRANSITIONS.inc()

    def _note_incident(self, exc: Exception) -> None:
        """Count a shard failure that was absorbed by a serial recompute.

        The executor stays sharded.  The first failure in any
        :data:`WARN_INTERVAL` seconds warns; later ones are only counted.
        """
        self._thread_errors += 1
        _INCIDENTS.inc()
        _TRANSITIONS.inc()
        now = time.monotonic()
        if self._warned_at is not None and now - self._warned_at < WARN_INTERVAL:
            return
        self._warned_at = now
        warnings.warn(
            f"parallel stack degraded [THREAD_ERROR]: thread worker raised "
            f"({type(exc).__name__}: {exc}); the failing shard was recomputed "
            "serially; thread dispatch continues for later requests",
            RuntimeWarning,
            stacklevel=4,
        )

    # ------------------------------------------------------------------
    # Kernel clones
    # ------------------------------------------------------------------
    def ensure_plane(
        self, graph: "TDNGraph", reverse: bool = False
    ) -> List["TraversalKernel"]:
        """One kernel clone per shard thread for ``graph``'s current version.

        ``graph.csr()`` runs first, so the engine has compacted if it is
        due.  The clones share the engine's (query-immutable) CSR
        arrays, arrival log and resolved backend but own their visited
        buffers, so concurrent sweeps cannot trample each other.  The
        log's shared column arrays are built here, on the caller's thread
        (:meth:`~repro.tdn.csr.DeltaCSR.kernel_clone`), so shard threads
        never build them concurrently.  Clones are cached per
        direction until the graph or its version changes.  For reverse
        sweeps the transpose is built once by the engine and shared by
        every clone.
        """
        engine = graph.csr()
        cached = self._clones.get(reverse)
        if cached is not None:
            graph_ref, version, clones = cached
            if graph_ref() is graph and version == graph.version:
                return clones
        clones = [engine.kernel_clone(reverse) for _ in range(self.workers)]
        self._clones[reverse] = (weakref.ref(graph), graph.version, clones)
        self._clone_cuts += 1
        return clones

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _ready(self, batch_size: int) -> bool:
        """Whether this request should be sharded (starts the pool)."""
        if batch_size < self.min_batch or not self._sharding:
            return False
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        return True

    @staticmethod
    def _run_shard(
        run: Callable[["TraversalKernel", List[Any]], Any],
        kernel: "TraversalKernel",
        part: List[Any],
        fail: bool,
    ) -> Tuple[Any, float]:
        started = time.monotonic()
        if fail:
            raise FaultInjected("injected fault: thread shard failed")
        return run(kernel, part), time.monotonic() - started

    def _sharded(
        self,
        graph: "TDNGraph",
        items: Sequence[Any],
        run: Callable[["TraversalKernel", List[Any]], Any],
        serial: Callable[[List[Any]], Any],
        reverse: bool = False,
    ) -> List[Any]:
        """Per-shard results of ``run(clone, slice)``, in slice order.

        A shard that raises or times out is answered by ``serial(slice)``
        on the caller's thread and counted as a ``THREAD_ERROR``
        incident, so the caller always receives exact, complete results.
        """
        assert self._pool is not None
        clones = self.ensure_plane(graph, reverse)
        slices = shard_slices(len(items), self.workers)
        parts = [list(items[start:stop]) for start, stop in slices]
        plan = self._fault_plan
        _DISPATCHES.inc()
        futures = [
            self._pool.submit(
                self._run_shard,
                run,
                clones[index],
                part,
                plan is not None and plan.next_shard_fails(),
            )
            for index, part in enumerate(parts)
        ]
        results: List[Any] = []
        for part, future in zip(parts, futures):
            try:
                value, elapsed = future.result(timeout=self.result_timeout)
                _SHARD_LATENCY.observe(elapsed)
            except Exception as exc:
                # A timed-out shard may still be sweeping its clone, so
                # no clone of this version is handed out again.
                self._clones = {}
                _SERIAL_FALLBACKS.inc()
                self._note_incident(exc)
                value = serial(part)
            results.append(value)
        return results

    def _sharded_list(
        self,
        graph: "TDNGraph",
        items: Sequence[Any],
        run: Callable[["TraversalKernel", List[Any]], List[Any]],
        serial: Callable[[List[Any]], List[Any]],
    ) -> List[Any]:
        """Like :meth:`_sharded`, spliced back into one per-item list."""
        results = self._sharded(graph, items, run, serial)
        return merge_shard_counts(
            shard_slices(len(items), self.workers), results, len(items)
        )

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
        if not self._ready(len(id_sets)):
            return graph.csr().spread_counts(id_sets, min_expiry)
        eff = graph.csr().effective_horizon(min_expiry)
        return self._sharded_list(
            graph,
            id_sets,
            lambda kernel, part: kernel.spread_counts(part, eff),
            lambda part: graph.csr().spread_counts(part, min_expiry),
        )

    def reachable_ids_many(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
    ) -> List[Set[int]]:
        """Per-set reachable id sets (weight-callable batch evaluation)."""
        if not id_sets:
            return []
        if not self._ready(len(id_sets)):
            return graph.csr().reachable_ids_many(id_sets, min_expiry)
        eff = graph.csr().effective_horizon(min_expiry)
        return self._sharded_list(
            graph,
            id_sets,
            lambda kernel, part: [kernel.reachable_ids(ids, eff) for ids in part],
            lambda part: graph.csr().reachable_ids_many(part, min_expiry),
        )

    def weighted_spread_sums(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
        *,
        weights: "np.ndarray",
    ) -> List[float]:
        """Per-set reached-weight sums; sharded when profitable, exact always.

        ``weights`` is the oracle's dense id-indexed float64 array; every
        shard reads it in place.  The kernel's canonical ascending-id
        summation makes shard results bit-identical to the serial
        engine's.
        """
        if not id_sets:
            return []
        if not self._ready(len(id_sets)):
            return graph.csr().weighted_spread_sums(id_sets, min_expiry, weights)
        eff = graph.csr().effective_horizon(min_expiry)
        return self._sharded_list(
            graph,
            id_sets,
            lambda kernel, part: kernel.weighted_spread_sums(part, eff, weights),
            lambda part: graph.csr().weighted_spread_sums(part, min_expiry, weights),
        )

    def fold_spread_sums(
        self,
        graph: "TDNGraph",
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
        *,
        fold: Fold,
    ) -> List[float]:
        """Per-set fold scores; sharded when profitable, exact always.

        Derived node values (``time_decay``) are computed once, on the
        caller's thread, from the engine every clone shares.
        Weight-carrying folds (``weighted_sum``) go through
        :meth:`weighted_spread_sums`.
        """
        fold = resolve_fold(fold)
        if not id_sets:
            return []
        if not self._ready(len(id_sets)):
            return graph.csr().fold_spread_sums(id_sets, min_expiry, fold)
        eff = graph.csr().effective_horizon(min_expiry)
        node_values = (
            graph.csr().fold_node_values(fold, min_expiry)
            if fold.derives_node_values
            else None
        )
        return self._sharded_list(
            graph,
            id_sets,
            lambda kernel, part: fold.batch(kernel, part, eff, node_values),
            lambda part: graph.csr().fold_spread_sums(part, min_expiry, fold),
        )

    def ancestor_ids(
        self,
        graph: "TDNGraph",
        target_ids: Iterable[int],
        min_expiry: Optional[float] = None,
    ) -> Set[int]:
        """Shard-merged reverse sweep: ancestors distribute over seed union.

        No library path calls this: the memo's dirty cone and the
        changed-node sweep run the engine's own :meth:`~repro.tdn.csr.
        DeltaCSR.ancestor_ids`.
        """
        targets = sorted(set(target_ids))
        if not targets:
            return set()
        if not self._ready(len(targets)):
            return graph.csr().ancestor_ids(targets, min_expiry)
        eff = graph.csr().effective_horizon(min_expiry)
        merged: Set[int] = set()
        for shard_ids in self._sharded(
            graph,
            targets,
            lambda kernel, part: kernel.reachable_ids(part, eff),
            lambda part: graph.csr().ancestor_ids(part, min_expiry),
            reverse=True,
        ):
            merged.update(shard_ids)
        return merged

    def touched_cone_ids(self, graph: "TDNGraph", seed_ids: Iterable[int]) -> Set[int]:
        """:meth:`ancestor_ids` at the widest live horizon (shard-merged)."""
        return self.ancestor_ids(graph, seed_ids, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.degraded or ("running" if self._pool is not None else "idle")
        return f"ShardedOracleExecutor(workers={self.workers}, state={state!r})"
