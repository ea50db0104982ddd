"""The time-decaying dynamic interaction network ``G_t`` (paper Section II-B).

``TDNGraph`` is the single shared substrate on which every algorithm in this
library operates.  It is a directed multigraph whose edges carry an *expiry
time*: an interaction arriving at ``tau`` with lifetime ``l`` is alive during
``[tau, tau + l - 1]`` and is removed at time ``tau + l``.  Nodes are removed
when their last alive edge expires, exactly as the paper specifies.

Horizon filtering
-----------------
The reproduction's key implementation device is that a
SIEVEADN instance indexed ``i`` at time ``t`` — which, per BASICREDUCTION's
construction, has processed exactly the edges still alive at ``t + i - 1`` —
can be identified by the absolute *horizon* ``h = t + i``.  The edges that
instance must see are exactly those with ``expiry >= h``.  ``TDNGraph``
therefore exposes ``min_expiry``-filtered adjacency iterators: a single graph
serves every instance, and the per-pair *maximum* expiry decides in O(1)
whether a directed pair is traversable for a given horizon.

Bookkeeping
-----------
* ``_out[u][v]`` and ``_in[v][u]`` share one :class:`_PairEdges` record per
  directed pair, holding the multiset of expiries and a cached maximum.
* ``_expiry_buckets[x]`` lists the pairs with an edge expiring at time
  ``x``; it is the only expiry index.  :meth:`advance_to` and
  :meth:`edges_with_expiry_in` find a range's live keys by probing
  each integer of the range when it is no wider than the number of
  keys ``K``, and by scanning the keys otherwise, so a range costs
  O(min(span, K)) plus sorting the keys found: a sparse timestamp
  jump is one pass over the keys, never O(Δt).
* every node ever seen is *interned* to a dense integer id
  (:meth:`node_id`); ids are stable for the graph's lifetime and are what
  the CSR reachability engine (:mod:`repro.tdn.csr`) indexes by.
* ``version`` increments once per arrived edge (a batch of ``n`` moves it
  by ``n``) and once per clock advance that expired anything; the
  influence oracle compares it to decide when to read the dirty-source
  journal.
* a bounded *dirty-source journal* records, per structural change, the
  interned id whose forward cone the change touched — an arrival's source,
  or the source of a directed pair whose last alive edge expired.  Memo
  consumers (the delta-aware oracle caches) read the journal suffix since
  their last sync through :meth:`dirty_source_ids_since` and evict only
  entries whose key intersects the ancestor closure of those ids, instead
  of dropping their whole table on every version bump.
* alive-node and alive-pair counters are maintained inline by
  :meth:`add_batch` and :meth:`advance_to`, so :attr:`num_nodes` and
  :attr:`num_pairs` are O(1) property reads instead of full adjacency
  scans.
* :meth:`csr` owns the incrementally maintained :class:`~repro.tdn.csr.
  DeltaCSR` engine: every mutation feeds it directly — each ingested batch
  extends its arrival log in one call, each expiry drain counts its pair
  deaths as tombstones in one call — so evaluation-heavy ingestion never
  pays a per-version O(V + P) snapshot rebuild; that threshold/merge
  compaction is the engine's only maintenance policy.

Ingest
------
The paper's model delivers interactions one batch per time step, so the
batch is the unit of ingest: :meth:`add_batch` is the only ingest path,
and :meth:`add_interaction` is a batch of one.  A batch is checked for
aliveness as a whole before anything is mutated, then applied in one
pass; its end state (adjacency, counters, expiry buckets, journal,
``version`` and the engine's log) is the state the same edges added one
at a time would leave.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.tdn.interaction import Interaction

Node = Hashable

#: Sentinel expiry for infinite-lifetime edges (addition-only networks).
INFINITE_EXPIRY = float("inf")


class _PairEdges:
    """Multiset of expiry times for one directed pair ``u -> v``.

    Tracks total multiplicity (parallel interactions are allowed and
    meaningful: the IC baselines convert the count into a diffusion
    probability) and caches the maximum alive expiry so that horizon-filtered
    traversal costs O(1) per neighbor.  :meth:`TDNGraph.add_batch` and
    :meth:`TDNGraph.advance_to` update the record inline.
    """

    __slots__ = ("expiries", "count", "max_expiry")

    def __init__(self, expiry: float) -> None:
        """A pair holding one edge, expiring at ``expiry``."""
        self.expiries: Dict[float, int] = {expiry: 1}
        self.count = 1
        self.max_expiry: float = expiry


class TDNGraph:
    """A time-decaying dynamic interaction network.

    Args:
        start_time: the initial clock value (default 0).

    Typical usage mirrors the paper's processing loop::

        graph = TDNGraph()
        for t, batch in stream:
            graph.advance_to(t)         # expire outdated edges
            graph.add_batch(batch)      # add the new arrivals
            ...                         # query / update algorithms

    All mutating operations bump :attr:`version` so downstream caches can
    invalidate precisely.
    """

    def __init__(self, start_time: int = 0) -> None:
        self._time = start_time
        self._out: Dict[Node, Dict[Node, _PairEdges]] = {}
        self._in: Dict[Node, Dict[Node, _PairEdges]] = {}
        self._expiry_buckets: Dict[int, List[Tuple[Node, Node]]] = {}
        self._node_ids: Dict[Node, int] = {}
        self._id_nodes: List[Node] = []
        self._num_edges = 0
        self._alive_nodes = 0
        self._alive_pairs = 0
        self._delta = None  # DeltaCSR engine, created lazily by csr()
        # Dirty-source journal: interned ids of nodes whose forward cone a
        # structural change touched, in mutation order.  ``_dirty_trimmed``
        # counts entries dropped by trimming, so journal positions (cursors)
        # stay monotone for the graph's lifetime.
        self._dirty_log: List[int] = []
        self._dirty_trimmed = 0
        self.version = 0

    #: Journal length bound: when the log exceeds this many entries it is
    #: dropped wholesale (consumers behind the trim point fall back to a
    #: full memo clear).  Oracles sync on every query, so in practice the
    #: log stays far below the cap between consumer reads.
    DIRTY_LOG_MAX = 1 << 17

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def time(self) -> int:
        """The current time step ``t``."""
        return self._time

    def advance_to(self, t: int) -> int:
        """Move the clock to ``t``, expiring edges along the way.

        Returns the number of edge instances removed.  Advancing backwards is
        an error: the TDN model is forward-only.

        Cost is O(expired edges) plus one :meth:`_expiry_keys_in` over
        ``(time, t]``, O(min(t - time, K)) for ``K`` live bucket keys: a
        dense single-step tick probes one key, and a sparse (e.g.
        unix-second) jump scans the keys once.  Each due bucket is popped
        and drained once, in ascending order; the dead pairs' sources are
        journaled, and their tombstones counted, once per drain.
        """
        if t < self._time:
            raise ValueError(f"cannot rewind time from {self._time} to {t}")
        if t == self._time + 1:  # a tick: its one key, probed inline
            due = [t] if t in self._expiry_buckets else None
        else:
            due = self._expiry_keys_in(self._time + 1, t + 1)
        if not due:
            self._time = t
            return 0
        out = self._out
        into = self._in
        buckets = self._expiry_buckets
        node_ids = self._node_ids
        dead: List[int] = []
        removed = 0
        for expiry in due:
            bucket = buckets.pop(expiry)
            removed += len(bucket)
            for u, v in bucket:
                out_u = out[u]
                pair = out_u[v]
                expiries = pair.expiries
                remaining = expiries[expiry]
                if remaining == 1:
                    del expiries[expiry]
                    if expiry == pair.max_expiry:
                        pair.max_expiry = max(expiries) if expiries else 0.0
                else:
                    expiries[expiry] = remaining - 1
                pair.count -= 1
                if pair.count:
                    continue
                # A node with no entry left on either side is dropped from
                # both maps and stops counting as alive (u != v: no
                # self-loops).
                in_v = into[v]
                del out_u[v]
                del in_v[u]
                self._alive_pairs -= 1
                if not out_u and not into.get(u):
                    del out[u]
                    into.pop(u, None)
                    self._alive_nodes -= 1
                if not in_v and not out.get(v):
                    del into[v]
                    out.pop(v, None)
                    self._alive_nodes -= 1
                dead.append(node_ids[u])
        self._num_edges -= removed
        if dead:
            self._journal(dead)
            if self._delta is not None:
                self._delta.record_pair_deaths(len(dead))
        self._time = t
        self.version += 1
        return removed

    def tick(self) -> int:
        """Advance the clock by one step; returns the number of expiries."""
        return self.advance_to(self._time + 1)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_interaction(self, interaction: Interaction) -> None:
        """Insert one interaction: :meth:`add_batch` of a single edge."""
        self.add_batch((interaction,))

    def add_batch(self, interactions: Iterable[Interaction]) -> int:
        """Insert a batch of interactions as (possibly parallel) directed
        edges; returns how many were added.

        This is the graph's one ingest path.  Every interaction must be
        alive at the current time (the stream is replayed in chronological
        order: advance the clock before adding a batch); if one is not,
        ``ValueError`` is raised before anything is mutated.  Then, in one
        pass, ids are interned and the adjacency, pair counters and expiry
        buckets are updated per edge; the dirty-source journal is extended
        once (per-edge order, same trim points); :attr:`version` moves by
        the batch size, the value per-edge bumps would reach; and the CSR
        engine logs the whole batch in one call.
        """
        if not isinstance(interactions, (list, tuple)):
            interactions = list(interactions)
        now = self._time
        expiries = [interaction.expiry for interaction in interactions]
        for interaction, expiry in zip(interactions, expiries):
            # Interaction.alive_at(now), with the expiry read once.
            if not interaction.time <= now < expiry:
                raise ValueError(
                    f"interaction {interaction} is not alive at current time {now}; "
                    "advance_to() the batch time before adding"
                )
        count = len(interactions)
        if not count:
            return 0
        node_ids = self._node_ids
        id_nodes = self._id_nodes
        out = self._out
        into = self._in
        buckets = self._expiry_buckets
        uids: List[int] = []
        vids: List[int] = []
        new_pairs = new_nodes = 0
        for interaction, expiry in zip(interactions, expiries):
            u = interaction.source
            v = interaction.target
            uid = node_ids.get(u)
            if uid is None:
                uid = node_ids[u] = len(id_nodes)
                id_nodes.append(u)
            vid = node_ids.get(v)
            if vid is None:
                vid = node_ids[v] = len(id_nodes)
                id_nodes.append(v)
            out_u = out.get(u)
            if out_u is None:
                out_u = out[u] = {}
            pair = out_u.get(v)
            if pair is None:
                # New alive pair: maintain the O(1) counters before
                # inserting (aliveness of u/v is read off the pre-insert
                # adjacency).
                new_pairs += 1
                if not out_u and not into.get(u):
                    new_nodes += 1
                in_v = into.get(v)
                if not in_v and not out.get(v):
                    new_nodes += 1
                pair = out_u[v] = _PairEdges(expiry)
                if in_v is None:
                    into[v] = {u: pair}
                else:
                    in_v[u] = pair
            else:
                pair_expiries = pair.expiries
                pair_expiries[expiry] = pair_expiries.get(expiry, 0) + 1
                pair.count += 1
                if expiry > pair.max_expiry:
                    pair.max_expiry = expiry
            if expiry != INFINITE_EXPIRY:
                step = int(expiry)
                bucket = buckets.get(step)
                if bucket is None:
                    buckets[step] = [(u, v)]
                else:
                    bucket.append((u, v))
            uids.append(uid)
            vids.append(vid)
        self._alive_pairs += new_pairs
        self._alive_nodes += new_nodes
        self._num_edges += count
        self.version += count
        self._journal(uids)
        if self._delta is not None:
            self._delta.record_arrivals(uids, vids, expiries)
        return count

    # ------------------------------------------------------------------
    # Dirty-source journal
    # ------------------------------------------------------------------
    def _journal(self, uids: Sequence[int]) -> None:
        """Record, in order, ids whose forward cone a mutation touched.

        One entry per arrival (the new edge's source) and one per pair
        death (the dead pair's source).  Non-final parallel-edge removals
        are *not* logged: expiries drain in increasing order, so removing
        one of several parallel edges can never lower the pair's maximum
        alive expiry, and no cached spread at a live horizon can change.

        The journal is dropped wholesale each time it would exceed
        :attr:`DIRTY_LOG_MAX` entries.  Extending by a batch keeps the
        trim points of appending one id at a time: after ``T`` appends
        the retained suffix is the last ``T mod (DIRTY_LOG_MAX + 1)``.
        """
        log = self._dirty_log
        log.extend(uids)
        cap = self.DIRTY_LOG_MAX + 1
        if len(log) >= cap:
            kept = len(log) % cap
            dropped = len(log) - kept
            self._dirty_trimmed += dropped
            del log[:dropped]

    @property
    def dirty_cursor(self) -> int:
        """Monotone journal position; pass it back to read the suffix."""
        return self._dirty_trimmed + len(self._dirty_log)

    def dirty_source_ids_since(self, cursor: int) -> Optional[set]:
        """Distinct dirty source ids journaled at or after ``cursor``.

        Returns ``None`` when ``cursor`` predates the retained journal
        (entries were trimmed away), in which case the caller cannot
        reconstruct the delta and must invalidate wholesale.
        """
        trimmed = self._dirty_trimmed
        if cursor < trimmed:
            return None
        return set(self._dirty_log[cursor - trimmed :])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of alive edge instances (parallel edges counted)."""
        return self._num_edges

    @property
    def num_pairs(self) -> int:
        """Number of distinct alive directed pairs ``(u, v)`` (O(1))."""
        return self._alive_pairs

    @property
    def num_nodes(self) -> int:
        """Number of nodes with at least one alive edge (O(1))."""
        return self._alive_nodes

    def node_set(self) -> set:
        """Return the alive node set ``V_t``."""
        nodes = set()
        for u, nbrs in self._out.items():
            if nbrs:
                nodes.add(u)
                nodes.update(nbrs)
        for v, nbrs in self._in.items():
            if nbrs:
                nodes.add(v)
        return nodes

    def nodes(self) -> Iterator[Node]:
        """Iterate over the alive node set."""
        return iter(self.node_set())

    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` has any alive edge."""
        return bool(self._out.get(node)) or bool(self._in.get(node))

    # ------------------------------------------------------------------
    # Node interning & CSR snapshot
    # ------------------------------------------------------------------
    @property
    def num_interned(self) -> int:
        """Number of nodes ever seen (dense-id space; never shrinks)."""
        return len(self._id_nodes)

    def node_id(self, node: Node) -> Optional[int]:
        """Dense integer id of ``node``, or None if it was never seen.

        Ids are assigned in first-appearance order and are stable for the
        graph's lifetime — a node keeps its id even after all of its edges
        expire, so array-indexed state (CSR snapshots, visited buffers)
        stays valid across structural updates.
        """
        return self._node_ids.get(node)

    def node_of_id(self, node_id: int) -> Node:
        """Inverse of :meth:`node_id` (raises IndexError for unknown ids)."""
        return self._id_nodes[node_id]

    def intern_ids(self, nodes: Iterable[Node]) -> Tuple[List[int], int]:
        """Map ``nodes`` to dense ids; count the never-seen remainder.

        Returns ``(ids, unknown)`` where ``ids`` are the ids of the known
        nodes and ``unknown`` is how many *distinct* inputs were never
        interned (the caller passes de-duplicated sets; unknown nodes still
        trivially reach themselves in spread accounting).
        """
        found = list(map(self._node_ids.get, nodes))
        ids = [node_id for node_id in found if node_id is not None]
        return ids, len(found) - len(ids)

    def csr(self):
        """The incrementally maintained CSR engine, synced to this version.

        The first call builds the :class:`~repro.tdn.csr.DeltaCSR` engine
        (one O(V + P) base compaction); from then on every mutation feeds
        the engine's log and tombstone count via the hooks in
        :meth:`add_batch` / :meth:`advance_to`, and this accessor merely
        checks the compaction threshold.
        """
        if self._delta is None:
            from repro.tdn.csr import DeltaCSR

            self._delta = DeltaCSR(self)
        else:
            self._delta.sync()
        return self._delta

    def out_neighbors(
        self, node: Node, min_expiry: Optional[float] = None
    ) -> Iterator[Node]:
        """Iterate successors of ``node`` traversable at the given horizon.

        With ``min_expiry=None`` every alive pair qualifies; otherwise only
        pairs with at least one edge expiring at or after ``min_expiry``
        (i.e. still alive at time ``min_expiry - 1``) are yielded.
        """
        nbrs = self._out.get(node)
        if not nbrs:
            return
        if min_expiry is None:
            yield from nbrs
        else:
            for v, pair in nbrs.items():
                if pair.max_expiry >= min_expiry:
                    yield v

    def in_neighbors(
        self, node: Node, min_expiry: Optional[float] = None
    ) -> Iterator[Node]:
        """Iterate predecessors of ``node`` traversable at the given horizon."""
        nbrs = self._in.get(node)
        if not nbrs:
            return
        if min_expiry is None:
            yield from nbrs
        else:
            for u, pair in nbrs.items():
                if pair.max_expiry >= min_expiry:
                    yield u

    def split_by_in_pairs(
        self, node_ids: Iterable[int]
    ) -> Tuple[List[int], List[int]]:
        """``(edged, lone)``: ``node_ids`` in input order, split into the
        ids that may have an alive in-pair and those known to have none.

        O(1) per id: ``_in`` lists exactly the alive in-pairs, and an
        emptied entry is falsy.  A node without an alive in-pair has no
        ancestor at any live horizon, which is what lets the CSR engine's
        reverse sweeps skip it as a seed.  An id outside ``[0,
        num_interned)`` names no node, so it goes to ``edged``, where the
        sweep's range check rejects it (probing it here would read a
        negative id from the end of the id list).
        """
        into = self._in
        id_nodes = self._id_nodes
        interned = len(id_nodes)
        edged: List[int] = []
        lone: List[int] = []
        for node_id in node_ids:
            if 0 <= node_id < interned and not into.get(id_nodes[node_id]):
                lone.append(node_id)
            else:
                edged.append(node_id)
        return edged, lone

    def in_pairs(self, node: Node) -> Iterator[Tuple[Node, float]]:
        """Iterate ``(predecessor, max alive expiry)`` for ``node``'s in-pairs."""
        nbrs = self._in.get(node)
        if nbrs:
            for u, pair in nbrs.items():
                yield u, pair.max_expiry

    def out_degree(self, node: Node) -> int:
        """Number of distinct alive successors of ``node``."""
        return len(self._out.get(node, ()))

    def in_degree(self, node: Node) -> int:
        """Number of distinct alive predecessors of ``node``."""
        return len(self._in.get(node, ()))

    def interaction_count(self, u: Node, v: Node) -> int:
        """Multiplicity of alive parallel edges ``u -> v``.

        The IC-model baselines map this count ``x`` to a diffusion
        probability ``p_uv = 2 / (1 + exp(-0.2 x)) - 1`` (paper Section V-C).
        """
        pair = self._out.get(u, {}).get(v)
        return pair.count if pair is not None else 0

    def max_expiry(self, u: Node, v: Node) -> float:
        """Largest expiry among alive ``u -> v`` edges (0.0 if none)."""
        pair = self._out.get(u, {}).get(v)
        return pair.max_expiry if pair is not None else 0.0

    def remaining_lifetime(self, u: Node, v: Node) -> float:
        """Largest remaining lifetime over parallel ``u -> v`` edges."""
        pair = self._out.get(u, {}).get(v)
        if pair is None:
            return 0.0
        return pair.max_expiry - self._time

    def alive_pairs(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate distinct alive directed pairs."""
        for u, nbrs in self._out.items():
            for v in nbrs:
                yield (u, v)

    def alive_pairs_with_counts(self) -> Iterator[Tuple[Node, Node, int]]:
        """Iterate ``(u, v, multiplicity)`` for distinct alive pairs."""
        for u, nbrs in self._out.items():
            for v, pair in nbrs.items():
                yield (u, v, pair.count)

    def edges_with_expiry_in(
        self, lo: float, hi: float
    ) -> Iterator[Tuple[Node, Node, int]]:
        """Iterate edge instances with expiry in ``[lo, hi)``.

        Used by HISTAPPROX when a newly created instance is copied from its
        successor: the copy must additionally process the alive edges whose
        remaining lifetime lies in ``[l, l*)``, i.e. expiry in
        ``[t + l, t + l*)``.  Entries are per edge instance (a pair appears
        once per parallel edge in range), in increasing expiry.  Expired
        buckets below the current clock are skipped.  ``hi`` may be
        ``math.inf`` (successor instance with an infinite horizon);
        infinite-expiry edges themselves are never yielded because ``hi``
        is exclusive.

        The keys come from :meth:`_expiry_keys_in`, so the cost is
        O(min(hi - lo, K)) for ``K`` live bucket keys, plus the matching
        edges: never the width of a sparse range.
        """
        buckets = self._expiry_buckets
        for step in self._expiry_keys_in(max(lo, self._time + 1), hi):
            # get() with a default: the caller may mutate the graph between
            # yields and drain a bucket this scan has not reached yet.
            bucket = buckets.get(step)
            if bucket is None:
                continue
            for u, v in bucket:
                yield (u, v, step)

    def _expiry_keys_in(self, lo: float, hi: float) -> List[int]:
        """The live bucket keys in ``[lo, hi)``, in ascending order.

        Keys are integers, so a range no wider than the number of keys is
        probed integer by integer; a wider one (a sparse clock jump, an
        infinite ``hi``) scans the keys and sorts the matches.  Either way
        the cost is O(min(span, K)) for ``K`` live keys, plus that sort.
        """
        buckets = self._expiry_buckets
        if hi - lo <= len(buckets):
            return [
                step for step in range(math.ceil(lo), math.ceil(hi)) if step in buckets
            ]
        return sorted(step for step in buckets if lo <= step < hi)

    def alive_interactions(self) -> List[Interaction]:
        """Materialize the alive edge instances as :class:`Interaction` rows.

        Expiries are converted back to lifetimes relative to the current
        clock (arrival times are not retained — the TDN only needs expiry).
        Intended for tests and debugging; cost is O(edges).
        """
        rows: List[Interaction] = []
        for u, nbrs in self._out.items():
            for v, pair in nbrs.items():
                for expiry, multiplicity in pair.expiries.items():
                    if expiry == INFINITE_EXPIRY:
                        lifetime = None
                    else:
                        lifetime = int(expiry) - self._time
                    for _ in range(multiplicity):
                        rows.append(Interaction(u, v, self._time, lifetime))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TDNGraph(time={self._time}, nodes={self.num_nodes}, "
            f"edges={self._num_edges}, version={self.version})"
        )
