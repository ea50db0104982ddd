"""Shared-memory CSR plane: the owner's delta engine, mirrored for workers.

The sharded oracle executor (:mod:`repro.parallel.executor`) farms spread
and ancestor sweeps out to a pool of worker processes.  Shipping the graph
to those workers by pickling would cost O(V + P) serialization per query
batch, and so would re-flattening it per graph version.  Instead the
plane mirrors the owner's :class:`~repro.tdn.csr.DeltaCSR` — a compacted
base plus an append-only arrival overlay — in POSIX shared memory:

* once per **compaction** the owner copies the engine's existing base
  arrays into a fresh *generation* of segments (no rebuild: the arrays
  already exist, so a publish is three memcpys);
* between compactions every arrival since the base is appended as one
  ``(uid, vid, expiry)`` row to the generation's **arrival log**, so a
  graph version costs the plane only its new edges.

Layout
------
A plane is a named family of ``multiprocessing.shared_memory`` segments:

* ``{prefix}-hdr`` — one small int64 header array::

      [generation, base_nodes, base_pairs, log_capacity, ready]

  ``generation`` increments on every base publish; workers read it to
  learn which data segments are current.  ``ready`` is written last
  (release fence by program order), so a torn publish is never
  observable: a worker that reads ``ready != generation`` reports skew.

* ``{prefix}-g{generation}-ip`` / ``-ix`` / ``-ex`` — the base's
  ``indptr`` (int64), ``indices`` (int64) and per-pair max ``expiries``
  (float64), indexed by the graph's interned node ids.

* ``{prefix}-g{generation}-lg`` — the generation's arrival log, a
  float64 ``(log_capacity, 3)`` array of ``(uid, vid, expiry)`` rows
  (ids are exact in float64).  Rows are written once, before the task
  that first needs them is dispatched, and never rewritten.  The log is
  sized from the engine's compaction trigger; an append that would
  overflow it starts a new generation instead (same base, larger log).

Workers attach by *name* (derived from prefix + generation read off the
header), so nothing but the few-int task message ever crosses a pipe.
Each task names its generation, the log length ``L`` it was dispatched
at and the live id-space size; the worker replays exactly the rows
``[applied, L)`` into its overlay — never the header or the segment's
current fill, so a stale task can never see a later graph state.  The
owner unlinks a generation's segments when the next one is published;
on Linux, attached mappings stay valid until the worker drops them, so a
worker holding the previous generation finishes its task unharmed.

:class:`PlaneEngine` is the worker-side query engine over the mapped
base plus the replayed overlay: forward bit-plane spread counts (counted,
weighted and folded), reachable-id sets and the transpose-backed ancestor
sweep, all bit-identical to the serial :class:`~repro.tdn.csr.DeltaCSR`
results on the same graph state at the same effective horizon (the owner
resolves the ``t + 1`` horizon clamp before dispatch, so workers never
need the clock).  It keeps the serial engine's shape — base arrays plus
a forward and a reverse :class:`~repro.kernels.DictOverlay` — and adapts
the same :class:`repro.kernels.TraversalKernel`, so sharded and serial
physics are one code path rather than a hand-synced convention.  Like
the serial engine, a populated overlay keeps sweeps on the interpreted
kernel paths even under the native backend.
"""

from __future__ import annotations

import secrets
from types import ModuleType
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.kernels import (
    PLANE_WIDTH,
    DictOverlay,
    Fold,
    TraversalKernel,
    build_transpose,
    max_in_expiries,
    resolve_fold,
)
from repro.parallel.markers import published_plane

if TYPE_CHECKING:
    from repro.tdn.csr import CSRSnapshot, DeltaCSR

__all__ = [
    "PlaneEngine",
    "SharedCSRPlane",
    "SharedWeights",
    "attach_plane_engine",
    "attach_weights",
    "shared_memory_available",
    "weights_segment_name",
]

_HEADER_SLOTS = 5
_GEN, _NODES, _PAIRS, _LOG_CAP, _READY = range(_HEADER_SLOTS)

#: Columns of one arrival-log row: ``(uid, vid, expiry)``.
_LOG_WIDTH = 3


def _shm_module() -> ModuleType:
    from multiprocessing import shared_memory

    return shared_memory


def shared_memory_available() -> bool:
    """Probe whether POSIX shared memory actually works on this host.

    ``multiprocessing.shared_memory`` imports fine but fails at segment
    creation on locked-down containers (no ``/dev/shm``); the executor
    probes once and falls back to the serial engine when it does.
    """
    try:
        shm = _shm_module().SharedMemory(create=True, size=16)
    except (ImportError, OSError, PermissionError):
        return False
    try:
        shm.close()
        shm.unlink()
    except OSError:  # pragma: no cover - cleanup best effort
        pass
    return True


@published_plane("indptr", "indices", "expiries", writers=("__init__",))
class PlaneEngine:
    """Base arrays plus a replayed arrival overlay: the worker-side engine.

    The base arrays may live in an attached shared-memory segment (worker
    side) or in ordinary process memory (tests, the hypothesis
    shard-merge property); they are never written.  Arrivals enter
    through :meth:`catch_up`, which adds each log row to a forward and a
    reverse :class:`~repro.kernels.DictOverlay` exactly as
    :meth:`repro.tdn.csr.DeltaCSR.record_arrival` does.  There is no
    clock: callers pass the *effective* horizon (already clamped to
    ``t + 1`` by the owner), which makes every query a pure function of
    base plus log prefix and keeps worker results bit-identical to the
    serial engine's.  Both directions are
    thin adapters over the shared :class:`~repro.kernels.TraversalKernel`
    (always on its vectorized path — workers never pay the calibration
    probe); the base transpose behind the reverse kernel is built
    lazily, once per attached generation.
    """

    __slots__ = (
        "num_nodes",
        "num_pairs",
        "indptr",
        "indices",
        "expiries",
        "applied",
        "_ov_out",
        "_ov_in",
        "_fwd",
        "_rev",
    )

    #: Candidate sets packed per bit-plane sweep — the kernel's uint64
    #: mask width, re-exported from the single source of truth
    #: (:data:`repro.kernels.PLANE_WIDTH`; fixed, not an override knob).
    PLANE_WIDTH = PLANE_WIDTH

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        expiries: np.ndarray,
        backend: Optional[str] = None,
    ) -> None:
        self.num_nodes = int(indptr.shape[0]) - 1
        self.num_pairs = int(indices.shape[0])
        self.indptr = indptr
        self.indices = indices
        self.expiries = expiries
        #: Log rows replayed into the overlay so far.
        self.applied = 0
        self._ov_out = DictOverlay.empty(self.num_nodes)
        self._ov_in = DictOverlay.empty(self.num_nodes)
        self._fwd = TraversalKernel(
            indptr, indices, expiries, overlay=self._ov_out, backend=backend
        )
        self._rev: Optional[TraversalKernel] = None

    def catch_up(self, log: np.ndarray, length: int, num_nodes: int) -> None:
        """Replay log rows ``[applied, length)`` and grow to ``num_nodes``.

        ``log`` is the generation's ``(capacity, 3)`` arrival log; rows
        past ``length`` are ignored even when present, so the engine
        answers for exactly the graph state the task was dispatched at.
        """
        if num_nodes > self.num_nodes:
            self.num_nodes = num_nodes
            self._ov_out.grow(num_nodes)
            self._ov_in.grow(num_nodes)
            for kernel in (self._fwd, self._rev):
                if kernel is not None:
                    kernel.ensure_capacity(num_nodes)
        if length > self.applied:
            rows = log[self.applied : length]
            for uid, vid, expiry in zip(
                rows[:, 0].astype(np.int64).tolist(),
                rows[:, 1].astype(np.int64).tolist(),
                rows[:, 2].tolist(),
            ):
                self._ov_out.add(uid, (vid, expiry))
                self._ov_in.add(vid, (uid, expiry))
            self.applied = length

    def _reverse_kernel(self) -> TraversalKernel:
        """Lazily build the transpose kernel (once per attached generation)."""
        if self._rev is None:
            self._rev = TraversalKernel(
                *build_transpose(self.indptr, self.indices, self.expiries),
                num_nodes=self.num_nodes,
                overlay=self._ov_in,
                backend=self._fwd.backend,
            )
        return self._rev

    # ------------------------------------------------------------------
    def reachable_ids(self, ids: Sequence[int], eff: Optional[float]) -> Set[int]:
        """Forward reachable id set at the effective horizon."""
        return self._fwd.reachable_ids(ids, eff)

    def ancestor_ids(self, ids: Sequence[int], eff: Optional[float]) -> Set[int]:
        """Transpose-backed reverse reachable id set (seeds included)."""
        return self._reverse_kernel().reachable_ids(ids, eff)

    def spread_counts(
        self, id_sets: Sequence[Sequence[int]], eff: Optional[float]
    ) -> List[int]:
        """Per-set reachable counts via the shared bit-plane sweep.

        Semantically ``[len(self.reachable_ids(s, eff)) for s in
        id_sets]``; up to :attr:`PLANE_WIDTH` sets share each physical
        traversal, exactly as in :meth:`repro.tdn.csr.DeltaCSR.
        spread_counts` — it *is* the same kernel code.
        """
        return self._fwd.spread_counts(id_sets, eff)

    def weighted_spread_sums(
        self,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        weights: np.ndarray,
    ) -> List[float]:
        """Per-set reached-weight sums via the weighted bit-plane sweep.

        ``weights`` is the dense id-indexed float64 array the owner
        published alongside the plane; sums fold in the kernel's
        canonical ascending-id order, so worker results are bit-identical
        to the serial engine's.
        """
        return self._fwd.weighted_spread_sums(id_sets, eff, weights)

    def fold_spread_sums(
        self,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        fold: Fold,
        weights: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Per-set scores under a registered fold semantics.

        Derived folds (``time_decay``) recompute their node values on
        every call from the base arrays with the reverse overlay's
        in-expiries layered on top — the derivation
        :meth:`repro.tdn.csr.DeltaCSR.fold_node_values` runs over the
        identical float64 inputs, so worker-side values match the
        owner's serial derivation bit for bit.
        """
        fold = resolve_fold(fold)
        node_values = weights
        if fold.derives_node_values:
            max_in = max_in_expiries(
                self.indices,
                self.expiries,
                self.num_nodes,
                eff,
                self._ov_in.entry_map,
            )
            node_values = fold.values_from_max_in(max_in, eff)
        return fold.batch(self._fwd, id_sets, eff, node_values)


class SharedCSRPlane:
    """Owner side of the shared-memory CSR plane (publish / append / unlink).

    One plane serves one executor and mirrors one graph's
    :class:`~repro.tdn.csr.DeltaCSR`.  :meth:`publish` copies the
    engine's compacted base and its arrival log so far into a fresh
    generation of segments and flips the header; superseded generations
    are unlinked immediately.  :meth:`append` copies the log rows added
    since into the current generation.  The owner must be the only
    publisher, and neither call may race in-flight worker tasks — the
    executor's synchronous dispatch guarantees both.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        self.prefix = prefix or f"repro-plane-{secrets.token_hex(4)}"
        # Crash safety: every attribute close() touches exists *before*
        # the first segment is created, so close() (or __del__) after a
        # failed __init__ neither raises nor leaks.
        self._hdr = None
        self._header = None
        self._segments: List = []  # live data segments of the current generation
        self._log: Optional[np.ndarray] = None  # current generation's log view
        self.generation = 0
        #: The published base snapshot (identity = the engine's compaction).
        self.base: Optional["CSRSnapshot"] = None
        #: Log rows the current generation holds.
        self.log_length = 0
        #: The live id-space size at the last publish or append.
        self.num_nodes = 0
        self.closed = False
        shm = _shm_module()
        self._hdr = shm.SharedMemory(
            create=True, name=f"{self.prefix}-hdr", size=_HEADER_SLOTS * 8
        )
        self._header = np.ndarray(
            (_HEADER_SLOTS,), dtype=np.int64, buffer=self._hdr.buf
        )
        self._header[:] = 0

    # ------------------------------------------------------------------
    @staticmethod
    def segment_names(prefix: str, generation: int) -> Tuple[str, str, str, str]:
        """The data segment names of one generation (shared with workers)."""
        stem = f"{prefix}-g{generation}"
        return f"{stem}-ip", f"{stem}-ix", f"{stem}-ex", f"{stem}-lg"

    def publish(self, engine: "DeltaCSR") -> int:
        """Open a new generation mirroring ``engine``; returns its number.

        Copies the engine's base arrays as they are (no snapshot build)
        and its arrival log so far.  The log segment holds twice the
        larger of the engine's compaction trigger and the current log,
        so a generation normally lasts until the next compaction.
        """
        if self.closed:
            raise RuntimeError("plane is closed")
        base = engine.base
        log = engine.arrival_log
        capacity = 2 * max(engine.compact_trigger, len(log))
        generation = self.generation + 1
        names = self.segment_names(self.prefix, generation)
        shm = _shm_module()
        segments = []
        arrays = (
            base.indptr,
            base.indices,
            base.expiries,
            np.zeros((capacity, _LOG_WIDTH), dtype=np.float64),
        )
        views = []
        try:
            for name, array in zip(names, arrays):
                segment = shm.SharedMemory(
                    create=True, name=name, size=max(array.nbytes, 8)
                )
                segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[:] = array
                views.append(view)
        except OSError:
            for segment in segments:
                segment.close()
                segment.unlink()
            raise
        log_view = views[-1]
        if log:
            log_view[: len(log)] = log
        header = self._header
        header[_GEN] = generation
        header[_NODES] = base.num_nodes
        header[_PAIRS] = base.num_pairs
        header[_LOG_CAP] = capacity
        header[_READY] = generation  # written last: publish is now visible
        previous = self._segments
        self._segments = segments
        self._log = log_view
        self.generation = generation
        self.base = base
        self.log_length = len(log)
        self.num_nodes = engine.num_nodes
        for segment in previous:
            segment.close()
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        return generation

    def append(self, engine: "DeltaCSR") -> bool:
        """Copy ``engine``'s unsent log rows into the current generation.

        Returns False — copying nothing — when the engine is not the one
        this generation mirrors (its base was compacted away) or the rows
        would overflow the log; the caller then publishes a new
        generation.
        """
        if engine.base is not self.base or self._log is None:
            return False
        log = engine.arrival_log
        start, stop = self.log_length, len(log)
        if stop > self._log.shape[0]:
            return False
        if stop > start:
            self._log[start:stop] = log[start:stop]
            self.log_length = stop
        self.num_nodes = engine.num_nodes
        return True

    def close(self) -> None:
        """Unlink every segment this plane owns (idempotent, crash-safe)."""
        if self.closed:
            return
        self.closed = True
        self._log = None
        self.base = None
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except OSError:  # pragma: no cover
                pass
        self._segments = []
        self._header = None
        if self._hdr is not None:  # None iff __init__ failed at creation
            self._hdr.close()
            try:
                self._hdr.unlink()
            except OSError:  # pragma: no cover
                pass
            self._hdr = None

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:  # repro-lint: disable=RPL304
            pass  # interpreter teardown: modules may already be gone


def weights_segment_name(prefix: str, seq: int) -> str:
    """Segment name for the ``seq``-th published weights epoch.

    All segment-name derivation lives in this module (enforced by
    repro-lint RPL203) so the owner and workers can never drift on the
    naming scheme.
    """
    return f"{prefix}-w{seq}"


class SharedWeights:
    """Owner-side publication of one dense float64 weight array.

    The weighted bit-plane sweep needs the oracle's id-indexed node
    weights worker-side; shipping the array in every task message would
    cost O(V) serialization per shard.  Instead the executor publishes it
    once per *weights epoch* (the array is append-only — it grows when
    new nodes are interned, its prefix never changes — so the epoch is
    simply its length) into one named segment, and tasks carry only the
    segment name.  The owner is the sole unlink authority, exactly as for
    the plane's data segments.
    """

    __slots__ = ("name", "length", "_segment", "closed")

    def __init__(self, name: str, weights: np.ndarray) -> None:
        # Attributes close() touches exist before the segment is created,
        # so close()/__del__ after a failed create is a clean no-op.
        self.name = name
        self.length = int(weights.shape[0])
        self._segment = None
        self.closed = False
        shm = _shm_module()
        self._segment = shm.SharedMemory(
            create=True, name=name, size=max(weights.nbytes, 8)
        )
        view = np.ndarray(
            (self.length,), dtype=np.float64, buffer=self._segment.buf
        )
        view[:] = weights

    def close(self) -> None:
        """Unlink the segment (idempotent, crash-safe)."""
        if self.closed:
            return
        self.closed = True
        if self._segment is None:  # __init__ failed at creation
            return
        self._segment.close()
        try:
            self._segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:  # repro-lint: disable=RPL304
            pass  # interpreter teardown: modules may already be gone


@published_plane("weights", writers=("__init__", "detach"))
class _WeightsAttachment:
    """Worker-side mapping of one published weights segment."""

    __slots__ = ("name", "weights", "_segment")

    def __init__(self, name: str, length: int) -> None:
        shm = _shm_module()
        self.name = name
        self._segment = shm.SharedMemory(name=name)
        self.weights = np.ndarray(
            (length,), dtype=np.float64, buffer=self._segment.buf
        )

    def detach(self) -> None:
        self.weights = None
        try:
            self._segment.close()
        except OSError:  # pragma: no cover
            pass


def attach_weights(name: str, length: int) -> _WeightsAttachment:
    """Attach a published weights segment by name (worker side)."""
    return _WeightsAttachment(name, length)


@published_plane("log", writers=("__init__", "detach"))
class _Attachment:
    """Worker-side mapping of one plane generation (base + arrival log)."""

    def __init__(
        self,
        prefix: str,
        generation: int,
        num_nodes: int,
        num_pairs: int,
        log_capacity: int,
    ) -> None:
        shm = _shm_module()
        names = SharedCSRPlane.segment_names(prefix, generation)
        self.generation = generation
        self._segments = []
        # Attaching re-registers the name with the (inherited, shared)
        # resource tracker — a set no-op, since the owner registered it at
        # creation.  The owner stays the single unlink authority; workers
        # only ever close their mappings.
        try:
            for name in names:
                self._segments.append(shm.SharedMemory(name=name))
        except Exception:
            self.detach()
            raise
        ip_seg, ix_seg, ex_seg, lg_seg = self._segments
        indptr = np.ndarray((num_nodes + 1,), dtype=np.int64, buffer=ip_seg.buf)
        indices = np.ndarray((num_pairs,), dtype=np.int64, buffer=ix_seg.buf)
        expiries = np.ndarray((num_pairs,), dtype=np.float64, buffer=ex_seg.buf)
        self.log: Optional[np.ndarray] = np.ndarray(
            (log_capacity, _LOG_WIDTH), dtype=np.float64, buffer=lg_seg.buf
        )
        self.engine: Optional[PlaneEngine] = PlaneEngine(indptr, indices, expiries)

    def catch_up(self, log_length: int, num_nodes: int) -> PlaneEngine:
        """The engine, with log rows ``[applied, log_length)`` replayed."""
        assert self.engine is not None and self.log is not None
        if log_length > self.log.shape[0]:
            raise RuntimeError(
                f"plane log skew: task expects {log_length} rows, "
                f"generation {self.generation} holds {self.log.shape[0]}"
            )
        self.engine.catch_up(self.log, log_length, num_nodes)
        return self.engine

    def detach(self) -> None:
        self.engine = None
        self.log = None
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover
                pass
        self._segments = []


def attach_plane_engine(prefix: str, expected_generation: int) -> "_Attachment":
    """Attach the plane's current generation; returns an :class:`_Attachment`.

    Raises ``RuntimeError`` when the header's ready generation does not
    match ``expected_generation`` — the owner republished (or tore down)
    between dispatch and attach, and the caller must report the task as
    failed so the owner re-dispatches or falls back.
    """
    shm = _shm_module()
    hdr = shm.SharedMemory(name=f"{prefix}-hdr")
    try:
        header = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=hdr.buf)
        ready = int(header[_READY])
        num_nodes = int(header[_NODES])
        num_pairs = int(header[_PAIRS])
        log_capacity = int(header[_LOG_CAP])
    finally:
        hdr.close()
    if ready != expected_generation:
        raise RuntimeError(
            f"plane generation skew: header ready={ready}, "
            f"task expects {expected_generation}"
        )
    return _Attachment(
        prefix, expected_generation, num_nodes, num_pairs, log_capacity
    )
