"""The compact CSR engine for a :class:`~repro.tdn.graph.TDNGraph`.

The influence oracle's cost model bottoms out in directed reachability, and
the reference implementation walks the graph's dict-of-dict adjacency one
Python object at a time.  This module holds the compact engine behind the
oracle's ``backend="csr"`` mode and the flat arrays it queries.

Two layers
----------
:class:`CSRSnapshot` is the immutable base layer: the alive pair adjacency
flattened into three numpy arrays —

* ``indptr``  (``num_nodes + 1``): per-node slice boundaries,
* ``indices``: successor ids, rows sorted by (source, target) id,
* ``expiries``: the per-pair *maximum* alive expiry,

indexed by the graph's dense interned node ids.  It holds arrays only;
:class:`DeltaCSR` queries them.  Horizon filtering stays O(1) per
neighbor exactly as in the dict substrate (compare a pair's max expiry
against ``min_expiry``), but the BFS frontier expansion becomes a
handful of vectorized gathers per level instead of per-edge Python dict
probes.

:class:`DeltaCSR` is the one query engine, the *incrementally maintained*
engine the graph serves queries from (:meth:`TDNGraph.csr`).  Instead of
rebuilding a snapshot on every graph version (O(V + P) per batch), it
keeps

* an immutable :class:`CSRSnapshot` **base**,
* one append-only **arrival log** (:class:`~repro.kernels.ArrivalLog`):
  the ``(uid, vid, expiry)`` columns of every edge that arrived since the
  base, extended once per ingested batch, and
* a lazy **tombstone count** for expiries.

The log is the engine's single source of truth for arrivals.  Sweeps
read it through two views, both built lazily: numpy column arrays for
the vectorized and bit-plane sweeps, and, for the scalar walks, each
kernel's per-node latest-expiry-first lists with the log's rows merged
in.  The forward direction reads the
columns as ``uid -> vid`` and the reverse direction reads them swapped,
so the transpose stays incremental without a log of its own.  Expiries
cost O(1) because a dead pair's base entry is *stale-but-harmless*: an
expired edge has ``expiry <= t``, while every live query horizon is at
least ``t + 1`` (an alive edge always satisfies ``expiry >= t + 1``), so
queries clamp their horizon to ``max(min_expiry, t + 1)`` and stale
entries filter themselves out.  When the log-plus-tombstone fraction
crosses :attr:`DeltaCSR.COMPACT_FRACTION` of the base, the engine compacts
into a fresh base — so a stream of B-edge batches pays amortized O(B),
not O(V + P), per step.  After the first base, compactions merge the old
base's arrays with the log's columns in whole-array numpy passes instead
of walking the graph.  A ``DeltaCSR`` built fresh on a graph has an
empty log and a base from :meth:`CSRSnapshot.build`: that is the
from-scratch comparator the tests query.

Traversals
----------
The engine carries no frontier or bit-plane loop of its own: every
sweep — forward reachability, the transpose-backed reverse (ancestor)
sweep behind ``changed_nodes``, the 64-wide bit-plane ``spread_counts``,
and the weighted bit-plane ``weighted_spread_sums`` — routes through the
shared :class:`repro.kernels.TraversalKernel`.  :class:`DeltaCSR` adapts
one kernel per direction, handing it the arrival log read in that
direction (:class:`repro.kernels.LogOverlay`) and resolving the
``t + 1`` horizon clamp before every call.  The sharded executor's
threads sweep private clones of the *same* kernels
(:meth:`DeltaCSR.kernel_clone`), which is what makes its bit-for-bit
guarantee structural rather than a hand-synced convention.

Each engine resolves its kernel backend and its scalar/vector cutover
once, in its constructor (:func:`resolve_scalar_pair_limit`).  The
cutover is fixed: :data:`DEFAULT_SCALAR_PAIR_LIMIT` unless a constructor
argument or ``REPRO_SCALAR_PAIR_LIMIT`` sets it, and 0 under the native
backend.  Both paths are result-identical, so it only ever moves time.
"""

from __future__ import annotations

import os
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import ConfigError
from repro.kernels import (
    PLANE_WIDTH,
    ArrivalLog,
    Fold,
    LogOverlay,
    TraversalKernel,
    build_transpose,
    max_in_expiries,
    resolve_backend,
    resolve_fold,
)

__all__ = ["CSRSnapshot", "DeltaCSR", "resolve_scalar_pair_limit"]

#: Environment override for the scalar/vector traversal cutover.
SCALAR_LIMIT_ENV = "REPRO_SCALAR_PAIR_LIMIT"

#: The python backend's scalar/vector cutover, in alive pairs.  Fixed,
#: so no timing ever picks a run's path; ARCHITECTURE.md records the
#: measured crossover (``benchmarks/cutover_crossover.py``).
DEFAULT_SCALAR_PAIR_LIMIT = 2048


def resolve_scalar_pair_limit(
    override: Optional[int] = None, backend: str = "python"
) -> int:
    """The scalar/vector cutover an engine built *now* uses.

    Engines call this once, when they are constructed, and hand the
    resulting int to their kernels; queries never re-resolve it.  By
    descending precedence:

    1. a per-engine constructor ``override``;
    2. the ``REPRO_SCALAR_PAIR_LIMIT`` environment variable, a
       non-negative integer (anything else raises :class:`ConfigError`);
    3. per resolved kernel ``backend``: 0 under ``"native"`` (always
       vectorized — the compiled fixpoints have no interpreter overhead
       to amortize, and the scalar path would *leave* the jit), else
       :data:`DEFAULT_SCALAR_PAIR_LIMIT`.
    """
    if override is not None:
        return override
    raw = os.environ.get(SCALAR_LIMIT_ENV)
    if raw is not None:
        try:
            limit: Optional[int] = int(raw)
        except ValueError:
            limit = None
        if limit is None or limit < 0:
            raise ConfigError(
                f"{SCALAR_LIMIT_ENV} must be a non-negative integer, got {raw!r}"
            )
        return limit
    if backend == "native":
        return 0
    return DEFAULT_SCALAR_PAIR_LIMIT


def _row_indptr(src: np.ndarray, num_nodes: int) -> np.ndarray:
    """``indptr`` of CSR rows whose source ids ``src`` are sorted."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr


class CSRSnapshot:
    """Immutable flat-array view of the alive directed pairs of a TDN.

    Build with :meth:`build`.  All arrays are indexed by the graph's
    interned node ids, including ids whose node has no alive edges (their
    adjacency slice is simply empty), so id-keyed callers never need to
    translate between id spaces across versions.  The snapshot is the
    *base layer* of :class:`DeltaCSR`, which owns every query; a fresh
    ``DeltaCSR(graph)`` queries a just-built snapshot with an empty log.
    """

    __slots__ = (
        "num_nodes",
        "num_pairs",
        "indptr",
        "indices",
        "expiries",
        "version",
    )

    def __init__(
        self,
        num_nodes: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        expiries: np.ndarray,
        version: int,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_pairs = int(indices.shape[0])
        self.indptr = indptr
        self.indices = indices
        self.expiries = expiries
        self.version = version

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph) -> "CSRSnapshot":
        """Flatten ``graph``'s alive pair adjacency into CSR arrays.

        Cost is O(V + P log P) for P alive pairs: one ``lexsort`` orders
        the pair list by (source, target) id — the row layout
        :class:`DeltaCSR`'s array-merge compaction also produces, so both
        build paths agree array for array.  The per-pair max expiry is
        read off the graph's cached :class:`_PairEdges` maxima, so no
        multiset is ever re-scanned.
        """
        num_nodes = graph.num_interned
        node_ids = graph._node_ids
        sources = []
        targets = []
        expiries = []
        for u, nbrs in graph._out.items():
            if not nbrs:
                continue
            uid = node_ids[u]
            for v, pair in nbrs.items():
                sources.append(uid)
                targets.append(node_ids[v])
                expiries.append(pair.max_expiry)
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        order = np.lexsort((dst, src))
        src = src[order]
        return cls(
            num_nodes,
            _row_indptr(src, num_nodes),
            dst[order],
            np.asarray(expiries, dtype=np.float64)[order],
            graph.version,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRSnapshot(nodes={self.num_nodes}, pairs={self.num_pairs}, "
            f"version={self.version})"
        )


class DeltaCSR:
    """Incrementally maintained delta-CSR reachability engine.

    Owned by the graph (:meth:`TDNGraph.csr` creates it lazily and keeps it
    for the graph's lifetime); the graph's mutation hooks feed it directly:

    * :meth:`record_arrivals` extends the :attr:`arrival_log` columns
      once per ingested batch.  Both directions read that one log, so
      neither the forward nor the reverse side keeps per-edge state, and
      the next compaction merges the log into the new base;
    * :meth:`record_pair_deaths` counts a tombstone per pair whose last
      alive edge expired, once per expiry drain.  The dead pair's base
      entry stays in place: its recorded expiry is ``<= t`` while every
      query horizon is clamped to ``>= t + 1``, so it can never be
      traversed again.

    :meth:`sync` (called from :meth:`TDNGraph.csr`) compacts log and
    tombstones into a fresh base once their combined count crosses
    ``max(COMPACT_MIN, COMPACT_FRACTION * base pairs)`` — merging the
    base arrays with the log's columns (:meth:`_merged_base`), not
    walking the graph; between compactions every mutation is O(1) per
    edge and every query sees the exact current graph.

    Every traversal is served by one shared :class:`~repro.kernels.
    TraversalKernel` per direction — base arrays (forward) or the lazily
    built base transpose (reverse), each with the log read in its
    direction (:class:`~repro.kernels.LogOverlay`).  The engine's only
    jobs are maintenance (log, tombstones, compaction, and keeping the
    live kernels' entry count and id space current from the mutation
    hooks) and resolving the ``t + 1`` horizon clamp before each kernel
    call.  The scalar/vector cutover is resolved once, in the
    constructor, and every kernel the engine builds reuses that int.
    """

    #: Compact when log rows + tombstones exceed this fraction of
    #: the base pair count ...
    COMPACT_FRACTION = 0.25
    #: ... but never before this many deltas have accumulated (tiny bases
    #: would otherwise compact on every batch).
    COMPACT_MIN = 512
    #: Candidate sets packed per bit-plane traversal — the kernel's
    #: uint64 mask width, re-exported from the single source of truth
    #: (:data:`repro.kernels.PLANE_WIDTH`; fixed, not an override knob).
    PLANE_WIDTH = PLANE_WIDTH

    __slots__ = (
        "_graph",
        "scalar_pair_limit",
        "backend",
        "_base",
        "_tindptr",
        "_tindices",
        "_texpiries",
        "_log",
        "_tombstones",
        "_fwd",
        "_rev",
        "compactions",
        "version",
    )

    def __init__(
        self,
        graph,
        scalar_pair_limit: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self._graph = graph
        # The backend resolves first: the cutover depends on it.
        self.backend = resolve_backend(backend)
        self.scalar_pair_limit = resolve_scalar_pair_limit(
            scalar_pair_limit, self.backend
        )
        self.compactions = 0
        self._fwd: Optional[TraversalKernel] = None
        self._rev: Optional[TraversalKernel] = None
        self._compact()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Current interned-id space (grows as nodes appear)."""
        return self._graph.num_interned

    @property
    def overlay_entries(self) -> int:
        """Arrivals logged since the last compaction."""
        return len(self._log)

    @property
    def tombstones(self) -> int:
        """Pair deaths accumulated since the last compaction."""
        return self._tombstones

    @property
    def base(self) -> CSRSnapshot:
        """The immutable compacted base snapshot."""
        return self._base

    @property
    def arrival_log(self) -> ArrivalLog:
        """Every ``(uid, vid, expiry)`` arrival since the base, in order.

        Append-only between compactions and replaced by them: base plus
        log is this engine's exact state, which is why a compaction can
        merge the old base arrays with the log instead of walking the
        graph.
        """
        return self._log

    @property
    def compact_trigger(self) -> int:
        """Log rows plus tombstones past which :meth:`sync` compacts."""
        return max(
            self.COMPACT_MIN, int(self.COMPACT_FRACTION * self._base.num_pairs)
        )

    # ------------------------------------------------------------------
    # Mutation hooks (called by TDNGraph)
    # ------------------------------------------------------------------
    def record_arrivals(
        self, uids: List[int], vids: List[int], expiries: List[float]
    ) -> None:
        """Log one ingested batch of arrived edges (equal-length columns).

        Also keeps the live kernels' entry count (the graph's alive pairs)
        and id space current, so queries do no upkeep of their own.  Every
        id in the batch is already interned, so the graph's id space
        bounds them all.
        """
        self._log.extend(uids, vids, expiries)
        graph = self._graph
        num_pairs = graph.num_pairs
        num_nodes = graph.num_interned
        for kernel in (self._fwd, self._rev):
            if kernel is not None:
                kernel.entry_count = num_pairs
                if num_nodes > kernel.num_nodes:
                    kernel.ensure_capacity(num_nodes)

    def record_pair_deaths(self, count: int) -> None:
        """Count a tombstone per pair whose last alive edge expired, and
        let the live kernels' cutover weigh the pairs left alive."""
        self._tombstones += count
        num_pairs = self._graph.num_pairs
        for kernel in (self._fwd, self._rev):
            if kernel is not None:
                kernel.entry_count = num_pairs

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring the engine up to date with the graph (maybe compact)."""
        if len(self._log.uids) + self._tombstones > self.compact_trigger:
            self._compact()
        else:
            self.version = self._graph.version

    def _compact(self) -> None:
        """Fold log and tombstones into a fresh immutable base.

        The first base walks the graph (:meth:`CSRSnapshot.build`); later
        bases are merged from arrays this engine already holds
        (:meth:`_merged_base`).
        """
        graph = self._graph
        if self.compactions:
            self._base = self._merged_base()
        else:
            self._base = CSRSnapshot.build(graph)
        self._tindptr = None
        self._tindices = None
        self._texpiries = None
        self._log = ArrivalLog()
        self._tombstones = 0
        self._fwd = None
        self._rev = None
        self.compactions += 1
        self.version = graph.version

    def _merged_base(self) -> CSRSnapshot:
        """The next base, merged from the current base and the log's columns.

        Exact without walking the graph: only :meth:`TDNGraph.advance_to`
        removes edges, and it drains expiries in increasing order, so an
        alive pair's max alive expiry is the max of every expiry recorded
        for it (its base entry plus its log rows), and a pair is dead
        exactly when that max is ``<= t``.  Rows are sorted by (source,
        target) like :meth:`CSRSnapshot.build`'s, so the merged base is
        array-identical to a fresh build.
        """
        graph = self._graph
        base = self._base
        src = np.repeat(
            np.arange(base.num_nodes, dtype=np.int64), np.diff(base.indptr)
        )
        dst = base.indices
        exp = base.expiries
        if len(self._log):
            uids, vids, expiries = self._log.columns()
            src = np.concatenate((src, uids))
            dst = np.concatenate((dst, vids))
            exp = np.concatenate((exp, expiries))
        alive = exp >= graph.time + 1
        src, dst, exp = src[alive], dst[alive], exp[alive]
        num_nodes = graph.num_interned
        # (source, target) order: one stable sort of a combined key gives
        # lexsort's permutation, and is far cheaper on these rows, whose
        # base prefix is already in order.
        order = np.argsort(src * num_nodes + dst, kind="stable")
        src, dst, exp = src[order], dst[order], exp[order]
        if src.size:
            # One run per (source, target) pair; keep the run's max expiry.
            fresh = np.empty(src.size, dtype=bool)
            fresh[0] = True
            fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            starts = np.flatnonzero(fresh)
            exp = np.maximum.reduceat(exp, starts)
            src, dst = src[starts], dst[starts]
        return CSRSnapshot(
            num_nodes,
            _row_indptr(src, num_nodes),
            dst,
            exp,
            graph.version,
        )

    def effective_horizon(self, min_expiry: Optional[float]) -> float:
        """Clamp the query horizon to ``t + 1``.

        Every alive edge satisfies ``expiry >= t + 1`` (an edge alive at
        ``t`` is removed at ``expiry > t``), so the clamp never hides a
        traversable pair; it *does* hide every stale base entry or log row,
        whose recorded expiry is ``<= t``.  This is what makes expiries
        O(1): lazy deletion with the horizon test as the filter.  The
        sharded executor resolves its shards' horizon here too.
        """
        floor = float(self._graph.time + 1)
        if min_expiry is None or min_expiry < floor:
            return floor
        return min_expiry

    def _kernel(self, reverse: bool) -> TraversalKernel:
        """The direction's shared kernel (built on first use per base).

        :meth:`record_arrivals` keeps a live kernel's entry count and id
        space current (the log its overlay reads grows in place), and
        compaction drops the kernels, so a kernel served here always
        describes the engine's current state.
        """
        kernel = self._rev if reverse else self._fwd
        if kernel is not None:
            return kernel
        if reverse:
            indptr, indices, expiries = self._transpose_arrays()
        else:
            base = self._base
            indptr, indices, expiries = base.indptr, base.indices, base.expiries
        kernel = TraversalKernel(
            indptr,
            indices,
            expiries,
            num_nodes=self.num_nodes,
            overlay=LogOverlay(self._log, reverse),
            entry_count=self._graph.num_pairs,
            scalar_limit=self.scalar_pair_limit,
            backend=self.backend,
        )
        if reverse:
            self._rev = kernel
        else:
            self._fwd = kernel
        return kernel

    def kernel_clone(self, reverse: bool = False) -> TraversalKernel:
        """A private-workspace clone of a direction's current kernel.

        Built for the thread-mode executor: clones share this engine's
        (query-immutable) arrays and log but own their visited buffers,
        so concurrent sweeps cannot trample each other.  On the
        vectorized path the log's shared column arrays are built here, on
        the caller's thread (:meth:`~repro.kernels.TraversalKernel.
        prepare_overlay`), so no two clones build them at once.  Callers must treat a clone as
        stale once the graph version moves.
        """
        kernel = self._kernel(reverse)
        kernel.prepare_overlay()
        return kernel.clone()

    def _transpose_arrays(self):
        """Lazily build the transpose of the base (the log stays separate)."""
        if self._tindptr is None:
            base = self._base
            self._tindptr, self._tindices, self._texpiries = build_transpose(
                base.indptr, base.indices, base.expiries
            )
        return self._tindptr, self._tindices, self._texpiries

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable_count(
        self, source_ids: Iterable[int], min_expiry: Optional[float] = None
    ) -> int:
        """Number of distinct nodes reachable from ``source_ids``."""
        eff = self.effective_horizon(min_expiry)
        return self._kernel(False).reachable_count(source_ids, eff)

    def reachable_ids(
        self, source_ids: Iterable[int], min_expiry: Optional[float] = None
    ) -> Set[int]:
        """The reachable id set itself (``weighted_sum`` oracles, tests)."""
        eff = self.effective_horizon(min_expiry)
        return self._kernel(False).reachable_ids(source_ids, eff)

    def reachable_ids_many(
        self,
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
    ) -> List[Set[int]]:
        """Per-set :meth:`reachable_ids`, one walk per set (weight callables)."""
        eff = self.effective_horizon(min_expiry)
        kernel = self._kernel(False)
        return [kernel.reachable_ids(ids, eff) for ids in id_sets]

    def ancestor_ids(
        self, target_ids: Iterable[int], min_expiry: Optional[float] = None
    ) -> Set[int]:
        """All ids that can reach ``target_ids`` (transpose-backed).

        This is the engine behind ``changed_nodes`` and, at
        ``min_expiry=None`` (the widest live horizon, ``t + 1``), behind
        the oracle memo's dirty cone: the reverse BFS runs on the lazily
        built transpose of the base plus the log read swapped, through
        the same shared kernel as the forward sweep.
        Only targets with an alive in-pair seed it.  The others have no
        ancestor at any live horizon, because every reverse entry a sweep
        can traverse at ``t + 1`` or later is an alive pair's, so they
        join the closure as themselves.  With no such target there is no
        sweep, and no transpose is built.
        """
        swept, lone = self._graph.split_by_in_pairs(target_ids)
        closure: Set[int] = set()
        if swept:
            eff = self.effective_horizon(min_expiry)
            closure = self._kernel(True).reachable_ids(swept, eff)
        closure.update(lone)
        return closure

    def ancestor_bottlenecks(
        self, seed_labels: Mapping[int, float]
    ) -> Dict[int, float]:
        """Widest-path labels of every ancestor of labelled seed ids.

        An ancestor's label is the largest horizon at which it reaches a
        seed whose own label clears that horizon, so ``{a : label >= h}``
        equals :meth:`ancestor_ids` of those seeds at ``h`` for every
        ``h >= t + 1``.  One walk on the transpose plus the log read
        swapped serves every horizon.  Base entries left stale by a
        refreshed pair carry an older expiry than the log's, and
        entries of dead pairs sit below the ``t + 1`` floor, so neither
        can widen a label.  Only seeds with an alive in-pair start the
        walk: the others pass no label on, so each keeps the larger of
        its own label and the one the walk gave it (if another seed's
        walk reached it); with no such seed the walk does not run.
        """
        swept, lone = self._graph.split_by_in_pairs(seed_labels)
        labels: Dict[int, float] = {}
        if swept:
            labels = self._kernel(True).bottleneck_scalar(
                {node_id: seed_labels[node_id] for node_id in swept},
                self.effective_horizon(None),
            )
        for node_id in lone:
            label = seed_labels[node_id]
            if node_id not in labels or label > labels[node_id]:
                labels[node_id] = label
        return labels

    def scalar_reach(
        self, min_expiry: Optional[float] = None
    ) -> Optional[Tuple[Callable[[Iterable[int], float], Set[int]], float]]:
        """``(walk, eff)`` for forward walks at ``min_expiry``, or ``None``.

        ``None`` above the scalar cutover.  Below it, ``walk(ids, eff)``
        is the kernel's scalar walk and ``eff`` the clamped horizon, so a
        caller with many small seed sets resolves both once and then
        calls ``len(walk(ids, eff))`` per set: what :meth:`spread_counts`
        computes per set on that path.
        """
        kernel = self._kernel(False)
        if not kernel._use_scalar():
            return None
        return kernel.reach_scalar, self.effective_horizon(min_expiry)

    def spread_counts(
        self,
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float] = None,
    ) -> List[int]:
        """Per-set reachable counts for a whole batch of candidate sets.

        Semantically ``[self.reachable_count(s, min_expiry) for s in
        id_sets]``, but the physical traversal is shared: the kernel packs
        up to :attr:`PLANE_WIDTH` sets into uint64 visited-mask planes
        (bit *i* of ``masks[v]`` = "set *i* reaches *v*") and propagates
        all planes to fixpoint in one multi-source sweep.  Callers own the
        per-set *accounting*; this method only shares the physics.
        """
        eff = self.effective_horizon(min_expiry)
        return self._kernel(False).spread_counts(id_sets, eff)

    def weighted_spread_sums(
        self,
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float],
        weights: np.ndarray,
    ) -> List[float]:
        """Per-set reached-weight sums via the weighted bit-plane sweep.

        Semantically ``[sum of weights over self.reachable_ids(s,
        min_expiry) for s in id_sets]`` with the canonical ascending-id
        summation of :func:`repro.kernels.dense_weight_sum` — and
        bit-identical to that loop — but 64 weighted evaluations share
        each physical traversal.  ``weights`` is a dense id-indexed
        float64 array covering at least :attr:`num_nodes` entries.
        """
        eff = self.effective_horizon(min_expiry)
        return self._kernel(False).weighted_spread_sums(id_sets, eff, weights)

    def fold_node_values(
        self, fold: Fold, min_expiry: Optional[float] = None
    ) -> np.ndarray:
        """Dense node values for a derived fold, arrivals included.

        The base arrays may carry stale entries for updated pairs, but
        every refresh also lives in the arrival log and ``max`` is
        associative — so layering the log's maxima over the stale base
        lands on exactly the values an engine freshly built on the
        current graph would derive, which is what keeps fold scores
        bit-identical across compactions and sharded sweeps.
        """
        eff = self.effective_horizon(min_expiry)
        base = self._base
        _, vids, expiries = self._log.columns()
        max_in = max_in_expiries(
            base.indices, base.expiries, self.num_nodes, eff, (vids, expiries)
        )
        return fold.values_from_max_in(max_in, eff)

    def fold_spread_sums(
        self,
        id_sets: Sequence[Sequence[int]],
        min_expiry: Optional[float],
        fold: Fold,
        weights: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Per-set scores under an arbitrary registered fold semantics.

        ``count`` routes through the byte-identical popcount path and
        ``weighted_sum`` expects caller-supplied ``weights`` (see
        :mod:`repro.kernels.folds`).  The ``t + 1`` horizon clamp is
        resolved here, derived node values (``time_decay``) fold the
        arrival log in, and the sweep itself runs through the shared
        kernel with the log read as usual.
        """
        fold = resolve_fold(fold)
        eff = self.effective_horizon(min_expiry)
        node_values = weights
        if fold.derives_node_values:
            node_values = self.fold_node_values(fold, min_expiry)
        return fold.batch(self._kernel(False), id_sets, eff, node_values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaCSR(nodes={self.num_nodes}, "
            f"base_pairs={self._base.num_pairs}, logged={len(self._log)}, "
            f"tombstones={self._tombstones}, compactions={self.compactions})"
        )
