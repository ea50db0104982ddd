"""The one array-level traversal kernel behind every engine.

Every influence quantity the paper needs — the spread ``|R(S)|``, the
changed-node set via reverse reachability, and weighted spread for
ROI-style workloads — reduces to the same time-decayed frontier sweep
over expiry-annotated CSR arrays.  Before this module the repo carried
hand-synced copies of that sweep, one per engine; :class:`TraversalKernel`
is the single shared implementation: ``DeltaCSR``, the one query
engine, adapts over it, and the sharded executor's threads sweep clones
of the same kernels, so sharded and serial physics *cannot* drift.

A kernel instance is one *direction* of traversal, parameterized by

* an ``(indptr, indices, expiries)`` CSR triple (base arrays may cover
  fewer nodes than the live id space — ids past the base simply have an
  empty base adjacency),
* an optional **overlay**: the rows of an :class:`ArrivalLog` read in
  the kernel's direction (:class:`LogOverlay`, or any object with the
  same three-member protocol), through which :class:`~repro.tdn.csr.
  DeltaCSR` adds its arrivals since the base to every sweep without
  forking it.  Vectorized and bit-plane sweeps select the rows whose
  head is in the frontier and whose expiry clears the horizon, and
  push them through the same gather as base slots; scalar walks merge
  the rows into the kernel's per-node lists,
* the effective horizon ``eff`` passed per query (``None`` = no filter;
  engines that lazily tombstone resolve their ``t + 1`` clamp *before*
  calling, which also makes sharded sweeps pure functions of the
  arrays), and
* an optional **scalar/vector cutover**, an entry count resolved by
  the owning engine when it builds the kernel: at or below it the kernel
  walks plain Python adjacency lists (numpy dispatch overhead dominates
  on tiny graphs), above it the frontier expansion is vectorized.
  ``None`` means always-vectorized.  Both paths are result-identical;
  the cutover can only ever cost time.

Sweeps
------
:meth:`TraversalKernel.reachable_ids` / :meth:`~TraversalKernel.
reachable_count` run the single-source frontier BFS with an epoch-stamped
visited buffer (bumping the stamp is an O(1) clear).  :meth:`~
TraversalKernel.spread_counts` is the multi-source **bit-plane** sweep:
up to :data:`PLANE_WIDTH` seed sets are packed into uint64 visited-mask
planes (bit *i* of ``masks[v]`` = "set *i* reaches *v*") and all planes
propagate to fixpoint in one shared traversal.  :meth:`~TraversalKernel.
weighted_spread_sums` and :meth:`~TraversalKernel.spread_level_counts`
ride the *same* fixpoint.  The first folds a dense float64 node-weight
array over each plane's reached ids — 64 weighted evaluations per
physical traversal, in the canonical ascending-id summation order of
:func:`dense_weight_sum` so serial, batched and sharded weighted values
are bit-identical.  The second also counts each round's newly set bits
per plane: a bit moves one hop per round, so those are the nodes first
reached at that hop, and the counts form each set's hop-level histogram.

Seed validation is unified here: every engine raises the same
``IndexError`` message for an out-of-range seed id, on every path
(scalar, vector, bit-plane), so callers can never observe which engine —
or which traversal path — rejected their input.
"""

from __future__ import annotations

import bisect
import heapq
import math
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.kernels.backend import (
    native_plane_level_flips,
    native_plane_masks,
    native_reach,
    resolve_backend,
)

__all__ = [
    "PLANE_WIDTH",
    "ArrivalLog",
    "LogOverlay",
    "SweepSampler",
    "TraversalKernel",
    "build_transpose",
    "dense_weight_sum",
    "plane_popcounts",
    "seed_range_error",
    "set_sweep_sampler",
]

#: Seed sets packed per bit-plane traversal (uint64 mask width).
PLANE_WIDTH = 64

#: ``_PLANE_BITS[i]`` is plane *i*'s bit in a uint64 visited mask.
_PLANE_BITS = np.left_shift(
    np.uint64(1), np.arange(PLANE_WIDTH, dtype=np.uint64)
)

#: ``_BYTE_BITS[b, j]`` is bit *j* of the byte value *b* (as int64, so a
#: byte histogram times this table counts set bits per bit position).
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)

#: Bin offsets giving each of a uint64's eight bytes its own histogram.
_BYTE_OFFSETS = np.arange(8, dtype=np.int64) * 256

#: The empty id array a sweep round without base slots returns.
_NO_IDS = np.empty(0, dtype=np.int64)


class SweepSampler(Protocol):
    """The kernel's only observability seam (see RPL501).

    ``record`` is called once per *physical* sweep — never per frontier
    round or per edge — with the entry-point kind, the number of seed
    sets the sweep served, and the reached-node total it computed anyway.
    A ``None`` sampler (the default) costs one branch per sweep; the
    standard implementation is :class:`repro.obs.sampling.KernelSampler`,
    installed via :func:`repro.kernels.instrument.enable_kernel_metrics`.
    The protocol lives here so this module keeps zero repro imports.
    """

    def record(self, kind: str, sets: int, reached: int) -> None: ...


#: Process-wide sweep hook; ``None`` compiles every record site down to
#: a single ``is not None`` branch.
_SWEEP_SAMPLER: Optional[SweepSampler] = None


def set_sweep_sampler(sampler: Optional[SweepSampler]) -> None:
    """Install (or with ``None`` remove) the process-wide sweep sampler."""
    global _SWEEP_SAMPLER
    _SWEEP_SAMPLER = sampler


def _expiry_desc(entry: Tuple[int, float]) -> float:
    return -entry[1]


def seed_range_error(node_id: int, num_nodes: int) -> IndexError:
    """The one out-of-range seed error every engine raises."""
    return IndexError(f"seed id {int(node_id)} out of range [0, {num_nodes})")


def plane_popcounts(masks: np.ndarray, planes: int) -> List[int]:
    """Per-plane set-bit counts of a uint64 mask array, in one pass.

    ``result[i]`` is the number of masks with bit *i* set, for the low
    ``planes`` bits.  The masks' bytes are histogrammed once (byte *j*
    of each mask into bins ``256 j .. 256 j + 255``) and the 8 x 256
    histogram is multiplied by the byte-to-bits table.  Masks are read
    little-endian, so byte *j* holds planes ``8 j .. 8 j + 7`` on every
    host.
    """
    octets = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    histogram = np.bincount(
        (octets + _BYTE_OFFSETS).ravel(), minlength=8 * 256
    ).reshape(8, 256)
    return (histogram @ _BYTE_BITS).ravel()[:planes].tolist()


def _check_seed_range(seeds: np.ndarray, num_nodes: int) -> None:
    """Raise :func:`seed_range_error` if one set's ``seeds`` leave the id
    range: for the minimum when it is negative, else for the maximum."""
    if seeds.size == 0:
        return
    low = int(seeds.min())
    if low < 0:
        raise seed_range_error(low, num_nodes)
    high = int(seeds.max())
    if high >= num_nodes:
        raise seed_range_error(high, num_nodes)


def _plane_counts(
    masks: np.ndarray, rounds: Optional[List[List[int]]], planes: int
) -> Tuple[List[int], int]:
    """Each plane's reached count, and the distinct ids any plane reached."""
    reached = masks[masks != np.uint64(0)]
    return plane_popcounts(reached, planes), int(reached.size)


def _plane_levels(
    masks: np.ndarray, rounds: Optional[List[List[int]]], planes: int
) -> Tuple[List[List[int]], int]:
    """Each plane's level histogram, read down its ``rounds`` column with
    trailing zeros trimmed (an empty set's plane never flips, so it has
    no level), and the histograms' total."""
    assert rounds is not None
    histograms: List[List[int]] = []
    for column in zip(*rounds):
        end = len(column)
        while end and not column[end - 1]:
            end -= 1
        histograms.append(list(column[:end]))
    return histograms, sum(map(sum, histograms))


def dense_weight_sum(weights: np.ndarray, reached: Iterable[int]) -> float:
    """Sum ``weights`` over a reached id collection, canonically ordered.

    Ids are gathered in ascending order before summing, so the float64
    accumulation is identical no matter how the reached set was produced
    — a scalar DFS set, a vectorized frontier union, a bit-plane mask, or
    a sorted list shipped back from a worker.  That canonical order is
    what makes weighted values bit-identical across serial, batched and
    sharded evaluation.
    """
    ids = np.fromiter(reached, dtype=np.int64)
    if ids.size == 0:
        return 0.0
    ids.sort()
    return float(weights[ids].sum())


def build_transpose(
    indptr: np.ndarray, indices: np.ndarray, expiries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reverse CSR triple of a forward one, rows sorted by source.

    One argsort of the combined ``target * n + source`` key orders the
    slots by (target, source).  For rows of unique (source, target) pairs
    — every engine base — that is the stable per-target order of the
    forward slots, at a fraction of a stable sort's cost.
    """
    num_nodes = int(indptr.shape[0]) - 1
    if indices.shape[0]:
        counts = np.bincount(indices, minlength=num_nodes)
        sources = np.repeat(
            np.arange(num_nodes, dtype=np.int64), np.diff(indptr)
        )
        order = np.argsort(indices * num_nodes + sources)
        tindices = sources[order]
        texpiries = expiries[order]
    else:
        counts = np.zeros(num_nodes, dtype=np.int64)
        tindices = np.empty(0, dtype=np.int64)
        texpiries = np.empty(0, dtype=np.float64)
    tindptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=tindptr[1:])
    return tindptr, tindices, texpiries


class ArrivalLog:
    """Append-only ``(uid, vid, expiry)`` arrival columns.

    The delta engine's one record of the edges that arrived since its
    base was compacted (:class:`~repro.tdn.csr.DeltaCSR` keeps one per
    base): three parallel Python lists, extended once per ingested batch
    (:meth:`extend`) and never edited in place.  Sweeps read two views
    derived from them on demand:

    * numpy column arrays (:meth:`columns`), brought up to date only when
      a vectorized or bit-plane sweep runs after the log grew (only the
      rows appended since then are converted);
    * per kernel, per-node ``(successor, expiry)`` lists, latest expiry
      first: the base adjacency with the log's rows merged in row by row
      when a scalar walk runs (:meth:`TraversalKernel._scalar_view`).

    A workload that only sweeps vectorized never merges rows into lists,
    and one that only walks scalar never builds the arrays.  A kernel
    reads the log through a :class:`LogOverlay`: the forward
    overlay reads the columns as ``uid -> vid``, the reverse one reads
    the same columns swapped.
    """

    __slots__ = ("uids", "vids", "expiries", "_arrays", "_converted")

    def __init__(self) -> None:
        self.uids: List[int] = []
        self.vids: List[int] = []
        self.expiries: List[float] = []
        # Capacity buffers behind :meth:`columns`; rows ``[0, _converted)``
        # hold the converted prefix of the lists.
        self._arrays = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        self._converted = 0

    def __len__(self) -> int:
        return len(self.uids)

    def extend(
        self, uids: List[int], vids: List[int], expiries: List[float]
    ) -> None:
        """Append one batch of arrivals (three equal-length columns)."""
        self.uids.extend(uids)
        self.vids.extend(vids)
        self.expiries.extend(expiries)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(uids, vids, expiries)`` as int64/int64/float64 arrays.

        Converts only the rows appended since the last call, into buffers
        that grow by doubling.  Returned arrays are prefixes of those
        buffers: later appends write past their end, so an array handed
        out earlier keeps describing the log as it was then.
        """
        rows = len(self.uids)
        done = self._converted
        uids, vids, expiries = self._arrays
        if rows != done:
            if rows > uids.shape[0]:
                capacity = max(rows, 2 * uids.shape[0], 64)
                grown = []
                for buffer in (uids, vids, expiries):
                    fresh = np.empty(capacity, dtype=buffer.dtype)
                    fresh[:done] = buffer[:done]
                    grown.append(fresh)
                uids, vids, expiries = grown
                self._arrays = (uids, vids, expiries)
            uids[done:rows] = self.uids[done:rows]
            vids[done:rows] = self.vids[done:rows]
            expiries[done:rows] = self.expiries[done:rows]
            self._converted = rows
        return uids[:rows], vids[:rows], expiries[:rows]


class LogOverlay:
    """One direction's reading of an :class:`ArrivalLog`, as a kernel sweeps it.

    This is the kernel's overlay protocol; any object with the same three
    members plugs into a :class:`TraversalKernel`:

    * ``size`` -- the number of rows (``0`` = nothing to add to the base).
      Rows are only ever appended, so an unchanged size means unchanged
      rows;
    * ``rows()`` -- ``(heads, tails, expiries)`` arrays, one entry per
      row, for an edge ``head -> tail`` in the sweep's direction (what the
      vectorized and bit-plane sweeps read);
    * ``since(start)`` -- ``(head, tail, expiry)`` tuples of the rows from
      ``start`` on, in order (what the scalar walks merge into their
      per-node lists).

    ``reverse=False`` reads the log as ``uid -> vid``; ``reverse=True``
    reads it as ``vid -> uid`` (the transpose).
    """

    __slots__ = ("log", "reverse", "_heads", "_tails")

    def __init__(self, log: ArrivalLog, reverse: bool = False) -> None:
        self.log = log
        self.reverse = reverse
        # The log's lists are extended in place, never replaced.
        self._heads, self._tails = (
            (log.vids, log.uids) if reverse else (log.uids, log.vids)
        )

    @property
    def size(self) -> int:
        return len(self._heads)

    def rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        uids, vids, expiries = self.log.columns()
        if self.reverse:
            return vids, uids, expiries
        return uids, vids, expiries

    def since(self, start: int) -> Iterator[Tuple[int, int, float]]:
        return zip(
            self._heads[start:], self._tails[start:], self.log.expiries[start:]
        )


class TraversalKernel:
    """One direction of time-decayed frontier sweeps over a CSR triple.

    Engines own one kernel per direction (forward, and transpose-backed
    reverse) and route every traversal through it; the kernel owns the
    epoch-stamped visited workspace and the lazily built plain-list
    mirror the scalar path walks.

    Args:
        indptr, indices, expiries: the CSR triple.  ``len(indptr) - 1``
            may be smaller than ``num_nodes`` — ids past the base have an
            empty base adjacency (the delta engine's overlay serves them).
        num_nodes: the live id space (defaults to the base node count).
        overlay: optional arrival rows added to the base (see
            :class:`LogOverlay` for the protocol).
        entry_count: the size the cutover weighs (defaults to the base's
            entries; the delta engine passes the graph's alive pairs and
            keeps it current from its mutation hooks).
        scalar_limit: the scalar/vector cutover, resolved once by the
            engine that builds the kernel: queries take the scalar path
            while ``entry_count <= scalar_limit``.  ``None`` (stored as
            ``-1``) pins the kernel to the vectorized path.
        backend: ``"python"`` | ``"native"`` | ``"auto"`` | ``None``
            (= honor ``REPRO_KERNEL_BACKEND``, else auto-probe).  The
            native (numba) fixpoints serve only overlay-free sweeps;
            queries through a populated overlay or the scalar cutover
            stay on the interpreted reference paths regardless of
            backend — results are bit-identical
            either way.
    """

    __slots__ = (
        "indptr",
        "indices",
        "expiries",
        "overlay",
        "num_nodes",
        "entry_count",
        "scalar_limit",
        "backend",
        "_visit",
        "_slot",
        "_mark",
        "_stamp",
        "_mark_stamp",
        "_live_key",
        "_live_rows",
        "_scalar",
        "_merged",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        expiries: np.ndarray,
        *,
        num_nodes: Optional[int] = None,
        overlay: Optional[LogOverlay] = None,
        entry_count: Optional[int] = None,
        scalar_limit: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.expiries = expiries
        self.overlay = overlay
        base_nodes = int(indptr.shape[0]) - 1
        self.num_nodes = base_nodes if num_nodes is None else num_nodes
        self.entry_count = int(indices.shape[0]) if entry_count is None else entry_count
        self.scalar_limit = -1 if scalar_limit is None else scalar_limit
        # Resolved once at construction: "python" or "native" (see
        # repro.kernels.backend for the explicit > env > auto ladder).
        self.backend = resolve_backend(backend)
        # Epoch-stamped visited buffer: visit[i] == _stamp means "seen in
        # the current traversal"; bumping the stamp is an O(1) clear.
        self._visit = np.zeros(self.num_nodes, dtype=np.int64)
        # Scratch for :meth:`_distinct`; every read follows a write in the
        # same call, so its contents never need clearing or preserving.
        self._slot = np.empty(self.num_nodes, dtype=np.int64)
        self._stamp = 0
        # Round-stamped frontier membership for overlay row selection:
        # mark[i] == _mark_stamp means "i is in the current frontier".
        self._mark = np.zeros(self.num_nodes, dtype=np.int64)
        self._mark_stamp = 0
        # :meth:`_log_rows`' last answer and its ``(log size, eff)`` key:
        # a tracker's sweeps within one step share both.
        self._live_key: Optional[Tuple[int, Optional[float]]] = None
        self._live_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Lazily materialized per-node adjacency lists for the scalar path,
        # and how many overlay rows have been merged into them.
        self._scalar: Optional[List[List[Tuple[int, float]]]] = None
        self._merged = 0

    # ------------------------------------------------------------------
    # Workspace maintenance
    # ------------------------------------------------------------------
    def ensure_capacity(self, num_nodes: int) -> None:
        """Grow the id space to ``num_nodes``.

        The visited, dedup and mark buffers grow by doubling, so a stream
        that interns one node per step does not copy them every step;
        :attr:`num_nodes` itself stays exact, since seed validation reads
        it.
        """
        if num_nodes <= self.num_nodes:
            return
        capacity = self._visit.shape[0]
        if num_nodes > capacity:
            capacity = max(num_nodes, 2 * capacity)
            visit = np.zeros(capacity, dtype=np.int64)
            visit[: self._visit.shape[0]] = self._visit
            mark = np.zeros(capacity, dtype=np.int64)
            mark[: self._mark.shape[0]] = self._mark
            self._visit = visit
            self._mark = mark
            self._slot = np.empty(capacity, dtype=np.int64)
        self.num_nodes = num_nodes

    def _use_scalar(self) -> bool:
        return self.entry_count <= self.scalar_limit

    def _native_ok(self) -> bool:
        """Whether this query may run the compiled fixpoints.

        Per-call, because the overlay fills and drains between queries:
        the native sweeps know nothing of overlays, so any *populated*
        overlay routes to the interpreted paths.  An empty one — the
        delta engine right after a compaction — is equivalent to no
        overlay at all.
        """
        if self.backend != "native":
            return False
        overlay = self.overlay
        return overlay is None or overlay.size == 0

    def clone(self) -> "TraversalKernel":
        """A same-arrays twin with a private visited workspace.

        Shares the (read-only during queries) CSR triple, overlay,
        cutover and resolved backend, but owns a fresh
        epoch-stamp buffer — exactly what a thread-mode executor worker
        needs to sweep concurrently with its siblings.
        """
        return TraversalKernel(
            self.indptr,
            self.indices,
            self.expiries,
            num_nodes=self.num_nodes,
            overlay=self.overlay,
            entry_count=self.entry_count,
            scalar_limit=self.scalar_limit,
            backend=self.backend,
        )

    def _scalar_view(self) -> List[List[Tuple[int, float]]]:
        """Per node, its ``(successor, expiry)`` pairs, latest expiry first,
        so a walk stops at the first pair below its horizon.

        Built from the base arrays on first use; overlay rows appended
        since the last call are then merged into their head's list (the
        list grows to cover ids past the base), so a walk probes one list
        per node.  Each kernel, clones included, owns its view.
        """
        view = self._scalar
        if view is None:
            bounds = self.indptr.tolist()
            pairs = list(zip(self.indices.tolist(), self.expiries.tolist()))
            view = self._scalar = [
                sorted(pairs[bounds[node_id] : bounds[node_id + 1]], key=_expiry_desc)
                for node_id in range(len(bounds) - 1)
            ]
        overlay = self.overlay
        if overlay is not None:
            size = overlay.size
            if size != self._merged:
                for head, tail, expiry in overlay.since(self._merged):
                    if head >= len(view):
                        view.extend([] for _ in range(head + 1 - len(view)))
                    bisect.insort(view[head], (tail, expiry), key=_expiry_desc)
                self._merged = size
        return view

    def prepare_overlay(self) -> None:
        """Build the shared overlay arrays this kernel's sweeps read, now.

        The arrays are built lazily, by the first vectorized or bit-plane
        sweep after the log grew, and clones share them.  A caller about
        to hand clones of this kernel to threads calls this first, on its
        own thread, so no two clones ever build them at once.  Clones
        share this kernel's cutover, so on the scalar path there is
        nothing to build: each kernel merges rows into a view of its own
        (:meth:`_scalar_view`).
        """
        if self.overlay is not None and not self._use_scalar():
            self.overlay.rows()

    # ------------------------------------------------------------------
    # Single/multi-source reachability
    # ------------------------------------------------------------------
    def reachable_ids(
        self, seed_ids: Iterable[int], eff: Optional[float]
    ) -> Set[int]:
        """Distinct ids reachable from ``seed_ids`` (seeds included)."""
        if self._use_scalar():
            return self.reach_scalar(seed_ids, eff)
        if self._native_ok():
            return self.reach_native(seed_ids, eff)
        return self.reach_vector(seed_ids, eff)

    def reachable_count(
        self, seed_ids: Iterable[int], eff: Optional[float]
    ) -> int:
        """``len(reachable_ids(...))`` without materializing the set
        on the vectorized path."""
        if self._use_scalar():
            return len(self.reach_scalar(seed_ids, eff))
        count = 0
        for reached in self._drain(seed_ids, eff, self._native_ok()):
            count += int(reached.size)
        sampler = _SWEEP_SAMPLER
        if count and sampler is not None:
            sampler.record("reach", 1, count)
        return count

    def reach_scalar(
        self, seed_ids: Iterable[int], eff: Optional[float]
    ) -> Set[int]:
        """Plain-Python traversal: the path at or below the cutover."""
        adjacency = self._scalar_view()
        listed = len(adjacency)
        num_nodes = self.num_nodes
        if eff is None:
            eff = -math.inf  # every expiry clears it
        visited: Set[int] = set()
        stack: List[int] = []
        visit = visited.add
        push = stack.append
        pop = stack.pop
        for node_id in seed_ids:
            if node_id < 0 or node_id >= num_nodes:
                raise seed_range_error(node_id, num_nodes)
            if node_id not in visited:
                visit(node_id)
                push(node_id)
        # Lists hold the latest expiry first, so each scan ends at the
        # first entry below the horizon.
        while stack:
            node_id = pop()
            if node_id < listed:
                for successor, expiry in adjacency[node_id]:
                    if expiry < eff:
                        break
                    if successor not in visited:
                        visit(successor)
                        push(successor)
        sampler = _SWEEP_SAMPLER
        if sampler is not None:
            sampler.record("reach_scalar", 1, len(visited))
        return visited

    def bottleneck_scalar(
        self, seed_labels: Mapping[int, float], floor: float
    ) -> Dict[int, float]:
        """Widest-path labels of every id reachable from labelled seeds.

        Each reached id gets the largest ``min(seed label, smallest pair
        expiry on the path)`` over all paths from a seed, skipping entries
        below ``floor``; a label-descending (Dijkstra-style) walk settles
        each id once.  So the ids reachable at any horizon ``h >= floor``
        from the seeds whose label clears ``h`` are exactly the ids whose
        label clears ``h``.  Walks the plain-list view plus the overlay,
        whatever the cutover.
        """
        adjacency = self._scalar_view()
        listed = len(adjacency)
        num_nodes = self.num_nodes
        labels: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        # Order-safe: (-label, id) totally orders the heap, so the walk and
        # its labels do not depend on seed order.
        # repro-lint: disable-next=RPL401
        for node_id, label in seed_labels.items():
            if node_id < 0 or node_id >= num_nodes:
                raise seed_range_error(node_id, num_nodes)
            labels[node_id] = label
            heap.append((-label, node_id))
        heapq.heapify(heap)
        unseen = floor - 1.0
        get = labels.get
        push = heapq.heappush
        pop = heapq.heappop
        # Lists hold the latest expiry first, so each scan ends at the
        # first entry below the floor.
        while heap:
            negative, node_id = pop(heap)
            label = -negative
            if label < labels[node_id]:
                continue  # superseded by a wider path
            if node_id < listed:
                for successor, expiry in adjacency[node_id]:
                    if expiry < floor:
                        break
                    width = expiry if expiry < label else label
                    if width > get(successor, unseen):
                        labels[successor] = width
                        push(heap, (-width, successor))
        sampler = _SWEEP_SAMPLER
        if sampler is not None:
            sampler.record("bottleneck", 1, len(labels))
        return labels

    def reach_native(
        self, seed_ids: Iterable[int], eff: Optional[float]
    ) -> Set[int]:
        """Compiled frontier traversal (same seed validation/stamping as
        the vectorized path; overlay-free by :meth:`_native_ok`)."""
        return self._reach_set(seed_ids, eff, True)

    def reach_vector(
        self, seed_ids: Iterable[int], eff: Optional[float]
    ) -> Set[int]:
        """Vectorized frontier traversal: the path above the cutover."""
        return self._reach_set(seed_ids, eff, False)

    def _reach_set(
        self, seed_ids: Iterable[int], eff: Optional[float], native: bool
    ) -> Set[int]:
        """The ids :meth:`_drain` yields, as one set."""
        reached: Set[int] = set()
        for ids in self._drain(seed_ids, eff, native):
            reached.update(ids.tolist())
        sampler = _SWEEP_SAMPLER
        if reached and sampler is not None:
            sampler.record("reach", 1, len(reached))
        return reached

    # ------------------------------------------------------------------
    # Bit-plane multi-source sweeps
    # ------------------------------------------------------------------
    def spread_counts(
        self, id_sets: Sequence[Sequence[int]], eff: Optional[float]
    ) -> List[int]:
        """Per-set reachable counts for a whole batch of seed sets.

        Semantically ``[self.reachable_count(s, eff) for s in id_sets]``;
        up to :data:`PLANE_WIDTH` sets share each physical traversal.
        Callers own per-set *accounting* — this only shares the physics.
        """
        if self._use_scalar():
            return [len(self.reach_scalar(ids, eff)) for ids in id_sets]
        return self._plane_sweeps("spread", id_sets, eff, int, _plane_counts)

    def weighted_spread_sums(
        self,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        weights: np.ndarray,
    ) -> List[float]:
        """Per-set reached-weight sums folded over the bit-plane sweep.

        Semantically ``[dense_weight_sum(weights, self.reachable_ids(s,
        eff)) for s in id_sets]`` — and bit-identical to it, because each
        plane's reached ids are extracted in ascending order before the
        float64 gather-sum — but 64 weighted evaluations share each
        physical traversal instead of materializing one Python set per
        set of seeds.
        """
        if self._use_scalar():
            return [
                dense_weight_sum(weights, self.reach_scalar(ids, eff))
                for ids in id_sets
            ]

        def plane_sums(
            masks: np.ndarray, rounds: Optional[List[List[int]]], planes: int
        ) -> Tuple[List[float], int]:
            reached_ids = np.flatnonzero(masks)
            reached_masks = masks[reached_ids]
            sums = [
                float(
                    weights[
                        reached_ids[
                            (reached_masks & _PLANE_BITS[plane]) != np.uint64(0)
                        ]
                    ].sum()
                )
                for plane in range(planes)
            ]
            return sums, int(reached_ids.size)

        return self._plane_sweeps("wspread", id_sets, eff, float, plane_sums)

    def spread_level_counts(
        self, id_sets: Sequence[Sequence[int]], eff: Optional[float]
    ) -> List[List[int]]:
        """Per-set histogram of first-reach hop levels.

        ``result[i][d]`` is the number of distinct nodes whose shortest
        alive-edge hop distance from seed set ``i`` is exactly ``d``
        (seeds are level 0); the list ends at the set's eccentricity.
        This is the physics under hop-discounted folds: the fold layer
        turns each histogram into a score without ever re-walking the
        graph, and up to :data:`PLANE_WIDTH` sets share each physical
        traversal exactly as :meth:`spread_counts` does.  A set's counts
        always sum to its :meth:`spread_counts` entry — levels refine
        the reached set, they never change it.
        """
        if self._use_scalar():
            return [self._level_counts_scalar(ids, eff) for ids in id_sets]
        return self._plane_sweeps(
            "spread_levels", id_sets, eff, list, _plane_levels
        )

    def _level_counts_scalar(
        self, seed_ids: Sequence[int], eff: Optional[float]
    ) -> List[int]:
        """Level-synchronous plain-Python BFS (the scalar-cutover twin of
        the leveled bit-plane sweep for a single seed set)."""
        adjacency = self._scalar_view()
        listed = len(adjacency)
        num_nodes = self.num_nodes
        if eff is None:
            eff = -math.inf
        visited: Set[int] = set()
        frontier: List[int] = []
        for node_id in seed_ids:
            if node_id < 0 or node_id >= num_nodes:
                raise seed_range_error(node_id, num_nodes)
            if node_id not in visited:
                visited.add(node_id)
                frontier.append(node_id)
        counts: List[int] = []
        while frontier:
            counts.append(len(frontier))
            successors: List[int] = []
            for node_id in frontier:
                if node_id < listed:
                    for successor, expiry in adjacency[node_id]:
                        if expiry < eff:
                            break
                        if successor not in visited:
                            visited.add(successor)
                            successors.append(successor)
            frontier = successors
        return counts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _distinct(self, ids: np.ndarray) -> np.ndarray:
        """One copy of each id in ``ids``, in input order, without a sort
        (see :meth:`_first_copies`)."""
        if ids.size < 2:
            return ids
        return ids[self._first_copies(ids)]

    def _first_copies(self, ids: np.ndarray) -> np.ndarray:
        """Boolean selector of one copy of each id in ``ids``.

        Position ``i`` writes itself into ``_slot[ids[i]]``, and the
        positions that read their own index back survive: exactly one
        copy of every id does, whichever duplicate's write landed last.
        ``ids`` must already lie in ``[0, num_nodes)``.
        """
        positions = np.arange(ids.size)
        slot = self._slot
        slot[ids] = positions
        return slot[ids] == positions

    def _seed_frontier(
        self, seed_ids: Iterable[int]
    ) -> Optional[np.ndarray]:
        """Deduplicated, validated, stamped seed frontier (None = empty)."""
        seeds = np.asarray(list(seed_ids), dtype=np.int64)
        if seeds.size == 0:
            return None
        _check_seed_range(seeds, self.num_nodes)
        frontier = self._distinct(seeds)
        self._stamp += 1
        self._visit[frontier] = self._stamp
        return frontier

    def _drain(
        self, seed_ids: Iterable[int], eff: Optional[float], native: bool
    ) -> Iterator[np.ndarray]:
        """The one frontier sweep behind every vectorized reach: yield the
        distinct ids reached from ``seed_ids`` (nothing for no seeds) as
        the stamped seed frontier and each later BFS frontier over base
        plus overlay, or, compiled, as one array."""
        frontier = self._seed_frontier(seed_ids)
        if frontier is None:
            return
        visit = self._visit
        stamp = self._stamp
        if native:
            yield native_reach(
                self.indptr, self.indices, self.expiries,
                frontier, visit, stamp, eff,
            )
            return
        log_rows = self._log_rows(eff)
        while True:
            yield frontier
            _, targets = self._round_edges(frontier, eff, log_rows, False)
            targets = targets[visit[targets] != stamp]
            if not targets.size:
                return
            frontier = self._distinct(targets)
            visit[frontier] = stamp

    def _log_rows(
        self, eff: Optional[float]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The overlay rows a sweep at ``eff`` may traverse, as
        ``(heads, tails)`` (``None`` = no such row).  Filtered once per
        sweep (and reused while the log and ``eff`` stay the same); each
        round then selects the rows its frontier heads."""
        overlay = self.overlay
        if overlay is None:
            return None
        key = (overlay.size, eff)
        if key == self._live_key:
            return self._live_rows
        live: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if key[0]:
            heads, tails, expiries = overlay.rows()
            if eff is not None:
                keep = expiries >= eff
                heads = heads[keep]
                tails = tails[keep]
            if heads.size:
                live = (heads, tails)
        self._live_key = key
        self._live_rows = live
        return live

    def _headed_by(self, frontier: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Boolean selector of the ``heads`` that lie in ``frontier``."""
        self._mark_stamp += 1
        stamp = self._mark_stamp
        mark = self._mark
        mark[frontier] = stamp
        return mark[heads] == stamp

    def _base_slots(
        self, frontier: np.ndarray, eff: Optional[float], with_sources: bool
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """``(sources, slots)`` of the base entries out of ``frontier``
        whose expiry clears ``eff`` (``sources`` is ``None`` unless
        ``with_sources``)."""
        indptr = self.indptr
        base_nodes = indptr.shape[0] - 1
        if base_nodes < self.num_nodes:
            frontier = frontier[frontier < base_nodes]
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            return (_NO_IDS if with_sources else None), _NO_IDS
        # Gather the concatenated adjacency slices of the frontier:
        # block i spans starts[i] .. starts[i] + counts[i].
        ends = np.cumsum(counts)
        slots = np.repeat(starts - ends + counts, counts)
        slots += np.arange(total)
        sources = np.repeat(frontier, counts) if with_sources else None
        if eff is not None:
            keep = self.expiries[slots] >= eff
            slots = slots[keep]
            if sources is not None:
                sources = sources[keep]
        return sources, slots

    def _round_edges(
        self,
        frontier: np.ndarray,
        eff: Optional[float],
        log_rows: Optional[Tuple[np.ndarray, np.ndarray]],
        with_sources: bool,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Every traversable edge out of ``frontier``: ``(sources, targets)``,
        base slots first, then the overlay rows the frontier heads
        (``sources`` is ``None`` unless ``with_sources``)."""
        sources, slots = self._base_slots(frontier, eff, with_sources)
        targets = self.indices[slots]
        if log_rows is not None:
            heads, tails = log_rows
            selected = self._headed_by(frontier, heads)
            targets = np.concatenate((targets, tails[selected]))
            if sources is not None:
                sources = np.concatenate((sources, heads[selected]))
        return sources, targets

    def _seed_planes(
        self, chunk: Sequence[Sequence[int]]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Validated plane-seeded mask array plus the deduplicated seed
        frontier (``None`` = every set was empty) — shared by every
        bit-plane sweep on both backends, so seeding and rejection cannot
        drift.

        One pass for the whole chunk: the sets' ids are flattened into one
        int64 array, range-checked once, and scattered with one
        ``bitwise_or.at`` whose operand repeats each set's plane bit over
        its ids.  On a range failure the per-set check re-runs, so the
        error names the same id a set-by-set scan meets first.
        """
        num_nodes = self.num_nodes
        masks = np.zeros(num_nodes, dtype=np.uint64)
        sets = [
            ids if isinstance(ids, (list, tuple)) else list(ids) for ids in chunk
        ]
        sizes = [len(ids) for ids in sets]
        try:
            seeds = np.fromiter(
                chain.from_iterable(sets), dtype=np.int64, count=sum(sizes)
            )
            in_range = seeds.size == 0 or (
                seeds.min() >= 0 and seeds.max() < num_nodes
            )
        except OverflowError:
            in_range = False
        if not in_range:
            for ids in sets:
                _check_seed_range(np.asarray(ids, dtype=np.int64), num_nodes)
        if seeds.size == 0:
            return masks, None
        np.bitwise_or.at(masks, seeds, np.repeat(_PLANE_BITS[: len(sets)], sizes))
        return masks, self._distinct(seeds)

    def _plane_sweeps(
        self,
        kind: str,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        empty: Callable[[], Any],
        fold: Callable[..., Tuple[list, int]],
    ) -> list:
        """The bit-plane sweeps' one chunk loop and one backend dispatch.

        Each chunk of up to :data:`PLANE_WIDTH` sets is seeded once and
        propagated to its fixpoint, compiled or by :meth:`_plane_fixpoint`.
        Both give the identical uint64 masks (bit *i* of ``masks[v]`` =
        "set *i* reaches *v*"), so every fold runs the same numpy
        expression either way.  For ``"spread_levels"`` the sweep also
        fills ``rounds``: row 0 holds each plane's distinct seed count, row
        ``r`` its nodes first reached at hop ``r``.  ``fold`` turns these
        into per-set values plus the reached total the sampler records.
        A chunk whose sets are all empty sweeps and records nothing; its
        values are ``empty()``.
        """
        results: list = []
        for start in range(0, len(id_sets), PLANE_WIDTH):
            chunk = id_sets[start : start + PLANE_WIDTH]
            planes = len(chunk)
            masks, frontier = self._seed_planes(chunk)
            if frontier is None:
                results.extend(empty() for _ in chunk)
                continue
            rounds = None
            if kind == "spread_levels":
                rounds = [plane_popcounts(masks[frontier], planes)]
            if not self._native_ok():
                self._plane_fixpoint(masks, frontier, eff, rounds)
            elif rounds is None:
                native_plane_masks(
                    self.indptr, self.indices, self.expiries, masks, frontier, eff
                )
            else:
                flips = native_plane_level_flips(
                    self.indptr, self.indices, self.expiries, masks, frontier, eff
                )
                rounds.extend(flips[:, :planes].tolist())
            values, reached = fold(masks, rounds, planes)
            sampler = _SWEEP_SAMPLER
            if sampler is not None:
                sampler.record(kind, planes, reached)
            results.extend(values)
        return results

    def _plane_fixpoint(
        self,
        masks: np.ndarray,
        frontier: np.ndarray,
        eff: Optional[float],
        rounds: Optional[List[List[int]]],
    ) -> None:
        """Propagate seeded planes to their fixpoint, in place.

        Every source pushes the mask it held at the start of the round
        (all ``contrib`` masks are gathered before the update), so a bit
        moves exactly one hop per round, and a bit that flips in round
        ``r`` marks a node first reached at hop level ``r``.  Given
        ``rounds``, each round appends its per-plane count of those newly
        set bits; the masks come out the same either way.
        """
        log_rows = self._log_rows(eff)
        while frontier.size:
            sources, targets = self._round_edges(frontier, eff, log_rows, True)
            if not targets.size:
                break
            contrib = masks[sources]
            before = masks[targets]
            np.bitwise_or.at(masks, targets, contrib)
            after = masks[targets]
            hit = after != before
            changed = targets[hit]
            if not changed.size:
                break
            if rounds is None:
                frontier = self._distinct(changed)
                continue
            # Duplicate targets gather identical before/after masks, so
            # one copy's gained bits are the node's.
            first = self._first_copies(changed)
            frontier = changed[first]
            gained = (after[hit] & ~before[hit])[first]
            rounds.append(plane_popcounts(gained, len(rounds[0])))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraversalKernel(nodes={self.num_nodes}, "
            f"entries={self.entry_count}, "
            f"overlay={0 if self.overlay is None else self.overlay.size})"
        )
