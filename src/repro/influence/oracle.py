"""The influence oracle: counted, cached evaluations of ``f_t(S)``.

Every algorithm in the paper is measured in *oracle calls* — evaluations of
the influence spread ``f_t`` — because that evaluation (one BFS) dominates
runtime and is hardware independent.  :class:`InfluenceOracle` is the single
gateway through which all algorithms evaluate spreads:

* it counts real evaluations into a shared :class:`CallCounter`;
* it memoizes results in a delta-aware table, so repeated evaluation of the
  same set (e.g. the current sieve set ``S_theta`` while a batch of
  candidates streams past, or across batches that provably did not touch
  the set's reachable cone) costs one call, mirroring how any sensible
  implementation caches ``f(S)`` when computing marginal gains;
* it accepts a ``min_expiry`` horizon so each SIEVEADN instance evaluates on
  its own addition-only subgraph while sharing the one TDN.

Backends
--------
Two interchangeable reachability engines sit behind the same API:

* ``"csr"`` (default): the incrementally maintained delta-CSR engine of
  :mod:`repro.tdn.csr` — an immutable base snapshot plus O(1)-per-edge
  overlay/tombstone deltas (no per-version rebuild), with every traversal
  served by the shared array-level kernel (:mod:`repro.kernels`), the
  same per-pair max-expiry horizon test.
* ``"dict"``: the reference pure-Python BFS over the graph's dict-of-dict
  adjacency (:func:`repro.influence.reachability.reachable_set`).

Every cache miss is evaluated where the cache protocol finds it, by
the one evaluator :meth:`InfluenceOracle._miss_evaluator` returns at a
request's first miss (see "The cache protocol" below).  A serial csr
``count`` oracle below the scalar cutover (``DeltaCSR.scalar_reach`` is
not ``None``) walks each miss alone: intern, ``reach_scalar``.  There a
batch shares no sweep; this is the paper's per-edge setting.  Every
other oracle evaluates a request's misses in one call to
:meth:`InfluenceOracle._evaluate_misses`, the one place a sweep is
chosen.  ``"dict"`` walks each set with ``reachable_set``.  On csr the
sets are interned once, never-interned seeds add their own term, a lone
set walks on the caller's thread (``reachable_count``,
``reachable_ids``), and two or more go to one sweep on ``graph.csr()``
or the executor method of the same name: ``spread_counts`` (count,
uniform weights), the mapping's ``weighted_spread_sums``, a callable's
``reachable_ids_many`` or ``fold_spread_sums`` (derived folds, lone
sets too).

Dirty-cone invalidation
-----------------------
The memo table survives graph version bumps.  At each sync the oracle
reads the graph's dirty-source journal — the interned ids whose forward
cone the structural changes since its last sync touched (arrival sources
plus dead-pair sources; see :meth:`repro.tdn.graph.TDNGraph.
dirty_source_ids_since`) — closes it under the engine's reverse-transpose
sweep (:meth:`repro.tdn.csr.DeltaCSR.ancestor_ids` at the widest live
horizon, ``t + 1``), and evicts exactly the memo entries whose key-set
intersects that closed dirty set.  The sync only evicts: SIEVEADN takes
its changed-node set from its own sweep (:mod:`repro.influence.changed`).
The contract behind retaining the rest:

* an arrival ``u -> v`` can only change ``f_t(S)`` if some node of ``S``
  reaches ``u`` in the *post-batch* graph, so post-batch ancestors of
  arrival sources cover every affected key;
* an expiry can only change ``f_t(S)`` if ``S`` reached the dead pair's
  source when the entry was cached; the first dead pair along any such
  path has its source journaled and the path prefix ahead of it is still
  alive, so post-expiry ancestors of dead-pair sources cover every
  affected key (non-final parallel-edge removals never change a pair's
  maximum alive expiry — expiries drain in increasing order — and are not
  journaled);
* clock advances that expire nothing change no live-horizon value (every
  surviving pair's max expiry still clears the new ``t + 1`` floor), and
  bump no version.

A dirty seed with no alive in-pair closes to itself: every reverse entry
a sweep can traverse at a live horizon is an alive pair's, so such a
node has no ancestor.  The engine sweeps only from the seeds that have
one and adds the others back, and runs no sweep when none has; on a
check-in stream, whose places never receive an interaction, that is
every seed.

``count``, ``weighted_sum`` and ``hop_discount`` score a key by its
reached set (and its hop levels) alone, so the same contract covers
them.  ``time_decay`` does not: its node terms read each reached node's
freshest in-edge against ``t + 1``, so an arrival *into* a reached node,
or a bare clock tick, moves a value that no dirty source's cone covers.
Its table is clock-bound and holds entries for one graph version and
time only (:attr:`MemoTable.clock_bound`).

Eviction preserves the table's FIFO insertion order, so cache-pressure
eviction (oldest first) is unaffected by dirty deletes, and a retained
entry is always equal to a from-scratch evaluation (property-tested;
tracker replays also match an oracle that calls
:meth:`InfluenceOracle.invalidate` before every batch).

Semantics
---------
``semantics`` names a fold from :data:`repro.kernels.FOLD_NAMES`.  The
default ``"count"`` is the paper's ``|R(S)|``.  Right after Definition 3
the paper notes that *any* normalized, monotone, submodular spread works
with the framework; ``"weighted_sum"`` is the canonical one,

    f_t(S) = sum of w(v) over v reachable from S in G_t

with non-negative node weights ``w`` given as a mapping or a callable
(``weights``; nodes the mapping lacks weigh ``default_weight``).  A
weight callable may be partial or stateful, so it is only ever invoked
on the caller's thread, for reached nodes.  Values are summed in
canonical ascending-id order, which keeps them bit-identical across
single, batched and sharded evaluation.  ``"hop_discount"`` and
``"time_decay"`` derive their node terms from the graph itself.

The cache protocol
------------------
:meth:`InfluenceOracle.spread_many` replays the *sequential* cache
protocol (:func:`replay_batch_protocol`): it takes hits in order and
counts, evaluates and memoizes each miss where it finds it, so the
accounting is exactly that of ``[self.spread(s) for s in sets]``.  At a
request's first miss it asks for the evaluator once.  Below the scalar
cutover that is the per-set walk.  Otherwise the request's distinct
misses that are neither memoized nor prefetched are evaluated in one
call, where the csr sweeps pack up to 64 seed sets into uint64
visited-mask planes of one shared traversal, and each miss is served
from that table.  When ``len(memo)`` plus the request's remaining sets
exceeds the capacity by ``overflow``, the request can evict its
``overflow`` oldest entries before it asks for them again, and its own
puts once ``overflow`` exceeds ``len(memo)``; so those hits, and then
the prefetched keys, are swept too.  A retained entry equals a fresh
evaluation, so no value moves.  Either way a
request makes at most one evaluator call, and a sweep that raises has
counted only the miss that asked for it, as ``spread`` would.

A caller that knows which sets it will ask for next at the same horizon
passes them as ``prefetch`` (a zero-argument builder; SIEVEADN passes
its non-empty sieve keys with the singleton sweep, so the pairs' bases
and the query come out of that sweep).  The rule: prefetched sets only
fill idle planes of a sweep that runs anyway, and never add a walk, a
64-set chunk or an executor dispatch.  So the builder is called only
on the bit-plane path (never on the scalar path, the ``"dict"``
backend, a weight callable's path or a lone-set walk), and a request
whose misses fill their last chunk prefetches nothing.  A prefetched
value is counted only on a protocol miss: it is neither counted nor
memoized when swept, and a later miss that asks for it counts one call
and is served without a sweep.  It lives for one graph version and
time; a version bump, a clock tick, :meth:`InfluenceOracle.invalidate`
or an evaluator exception drops it.  Values, calls and memo FIFO order
therefore stay those of the same requests without ``prefetch``
(property-tested).  ``repro_oracle_prefetched_sets_total`` and
``repro_oracle_prefetch_served_total`` show what rode and what was
used.

:meth:`InfluenceOracle.spread` is ``spread_many`` over a batch of one,
so a lone miss takes the per-set walk below the cutover and otherwise
:meth:`InfluenceOracle._evaluate_misses` with one set.  There a lone set
walks
because a one-plane sweep pays for a whole-graph mask: on ``gowalla``
engines of 2.8k-9.4k alive pairs a lone count costs 24-45 us walked,
43-98 us swept, and Greedy past the cutover ran at 179 events/s walked,
112 swept (2-core Xeon).

Both backends return identical values and spend identical oracle calls —
the cross-backend equivalence suite pins this on seeded streams — so the
accounting shown in the paper's figures is backend independent.  The
dirty-cone closure runs on the owning backend's own sweep (transpose CSR
for ``"csr"``, the reference dict ancestor walk for ``"dict"`` — a dict
oracle never forces a CSR engine build just to evict); both sweeps
produce the identical closure, so memo semantics are backend independent
too.

Sharded parallel evaluation (``parallel``)
------------------------------------------
``parallel`` plugs a :class:`~repro.parallel.executor.
ShardedOracleExecutor` under the CSR backend: batched miss evaluations
are partitioned, in whole 64-set planes, across a thread pool whose
threads sweep private kernel clones of the graph's CSR engine, while
every bit of accounting (cache protocol, call counting, FIFO order)
stays in this layer, so the sharded oracle is bit-for-bit equivalent
to the serial one.  The dirty-cone closure never shards: it is the same
reverse sweep on the caller's thread as on the serial path.  Pass a
worker count (the oracle owns the executor; :meth:`InfluenceOracle.
close` releases it) or share one executor instance across oracles;
anything else is a ``ConfigError``.
The executor serves serially on its own (single worker, small batches,
a failed shard), so ``parallel`` never changes results, only wall-clock.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Any,
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigError, SemanticsError, check_workers
from repro.influence.reachability import ancestors, reachable_set
from repro.kernels import PLANE_WIDTH, dense_weight_sum, resolve_fold
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.tdn.graph import TDNGraph
from repro.utils.counters import CallCounter

Node = Hashable
WeightSpec = Union[Mapping[Node, float], Callable[[Node], float]]

# Instruments bound once at import (the registry pre-registers the whole
# catalog, so these lookups cannot miss).  The oracle records into the
# process registry.
_MEMO_HITS = metrics_registry().counter(metric_names.ORACLE_MEMO_HITS_TOTAL)
_MEMO_MISSES = metrics_registry().counter(metric_names.ORACLE_MEMO_MISSES_TOTAL)
_MEMO_EVICTIONS = metrics_registry().counter(
    metric_names.ORACLE_MEMO_EVICTIONS_TOTAL
)
_CONE_SIZE = metrics_registry().histogram(metric_names.ORACLE_CONE_SIZE_NODES)
_PREFETCHED = metrics_registry().counter(metric_names.ORACLE_PREFETCHED_SETS_TOTAL)
_PREFETCH_SERVED = metrics_registry().counter(
    metric_names.ORACLE_PREFETCH_SERVED_TOTAL
)

#: Builds, on demand, the sets a caller will ask for later at the same
#: horizon (see "The cache protocol" in the module docstring).
Prefetch = Callable[[], Iterable[Iterable[Node]]]

#: Count-semantics cache key.  Non-count semantics append the fold's
#: hashable token as a third element, so two semantics over one graph can
#: never collide on a memo slot; the key-set nodes stay at index 1, which
#: is the only position the table's inverted index relies on.
_CacheKey = Tuple[Optional[float], FrozenSet[Node]]

#: Selectable reachability engines.
ORACLE_BACKENDS = ("csr", "dict")

def replay_batch_protocol(
    memo, counter, sets, min_expiry, resolve, zero, semantics=None
):
    """The sequential cache protocol behind ``spread_many``.

    Walk the batch in submission order, taking hits and counting one
    oracle call per miss.  Each miss is evaluated and inserted where the
    walk finds it, so a later in-batch duplicate is a plain hit, and
    values, call counts and FIFO eviction order are exactly those of
    ``[spread(s) for s in sets]``.  At the first miss, ``resolve`` is
    called once with the remaining memo keys (``None`` for an empty set)
    and returns the evaluator, ``key -> value``, for every miss of the
    batch, so an all-hit batch resolves nothing.

    The walk is flat: a set costs one key build and one probe of the
    memo's dict, and the call counter and the hit/miss registry counters
    are bumped once per batch, after the walk, also when an evaluation
    raises (counting the miss that raised, as ``spread`` would).

    Every set is frozen *before* the first cache mutation, so a bad input
    (unhashable member, exhausted iterator) raises while the memo still
    holds nothing of the batch.

    ``semantics`` is an optional hashable token appended to every cache
    key (``None`` keeps the historical two-element key), so oracles
    evaluating different fold semantics over one shared graph keep fully
    disjoint memo populations.
    """
    keys = [
        None
        if not nodes
        else (min_expiry, nodes)
        if semantics is None
        else (min_expiry, nodes, semantics)
        for nodes in map(frozenset, sets)
    ]
    probe = memo.data.get
    results: list = [zero] * len(keys)
    hits = 0
    misses = 0
    evaluate = None
    try:
        for i, key in enumerate(keys):
            if key is None:
                continue
            value = probe(key)
            if value is None:
                misses += 1
                if evaluate is None:
                    evaluate = resolve(keys[i:])
                value = evaluate(key)
                memo.put(key, value)
            else:
                hits += 1
            results[i] = value
    finally:
        if hits:
            _MEMO_HITS.inc(hits)
        if misses:
            counter.increment(misses)
            _MEMO_MISSES.inc(misses)
    return results


def resolve_executor(parallel, backend: str):
    """Normalize an oracle's ``parallel`` argument.

    Returns ``(executor, owns_executor)``: ``None`` for serial operation
    (``None`` or 1), a fresh owned :class:`~repro.parallel.executor.
    ShardedOracleExecutor` for an integer worker count above 1, or the
    caller's shared executor instance (not owned — the caller closes
    it).  Anything else (a bool, a float, a string, an int below 1) is a
    :class:`ConfigError` here, before any call is counted.  Sharding
    sweeps clones of the CSR engine's kernels, so the ``"dict"`` backend
    rejects it outright rather than silently ignoring the request.
    """
    if parallel is None:
        return None, False
    # Deliberate injection seam: the import stays lazy so an oracle built
    # without ``parallel`` never touches repro.parallel.
    # repro-lint: disable-next=RPL102
    from repro.parallel.executor import ShardedOracleExecutor

    if isinstance(parallel, bool) or not isinstance(
        parallel, (int, ShardedOracleExecutor)
    ):
        raise ConfigError(
            "parallel must be None, an int worker count, or a "
            f"ShardedOracleExecutor, got {parallel!r}"
        )
    if backend != "csr":
        raise ConfigError(
            f"parallel evaluation requires backend='csr', got {backend!r}"
        )
    if isinstance(parallel, int):
        if check_workers(parallel) == 1:
            return None, False
        return ShardedOracleExecutor(parallel), True
    return parallel, False


class MemoTable:
    """FIFO-bounded memo table with delta-aware dirty-cone invalidation.

    One instance backs each oracle.  The table tracks, per key, the
    nodes the key mentions (an inverted index), which makes evicting every
    entry that intersects a dirty-node set proportional to the entries
    actually evicted rather than to the table size.

    Dicts preserve insertion order, so the first key is always the oldest
    memo; evicting it under capacity pressure keeps recent spreads hot
    instead of disabling memoization outright, and dirty-cone eviction
    (plain deletes) never reorders the survivors.  ``max_entries=0``
    disables the table entirely.
    """

    __slots__ = (
        "graph",
        "data",
        "max_entries",
        "cone_backend",
        "clock_bound",
        "_index",
        "_version",
        "_cursor",
        "_time",
    )

    def __init__(
        self,
        graph: TDNGraph,
        max_entries: int,
        cone_backend: str = "csr",
        clock_bound: bool = False,
    ) -> None:
        if max_entries < 0:
            raise ConfigError(f"max_entries must be >= 0, got {max_entries}")
        if cone_backend not in ORACLE_BACKENDS:
            raise ConfigError(
                f"cone_backend must be one of {ORACLE_BACKENDS}, got {cone_backend!r}"
            )
        self.graph = graph
        self.data: dict = {}
        self.max_entries = max_entries
        self.cone_backend = cone_backend
        #: Values depend on the clock and on in-edges (derived node
        #: values): entries then live for one graph version and time.
        self.clock_bound = clock_bound
        self._index: dict = {}  # node -> set of live keys mentioning it
        self._version = graph.version
        self._cursor = graph.dirty_cursor
        self._time = graph.time

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Entry maintenance
    # ------------------------------------------------------------------
    def put(self, key: _CacheKey, value) -> None:
        """Insert under FIFO capacity; overwriting never reorders."""
        data = self.data
        if key in data:
            data[key] = value
            return
        if len(data) >= self.max_entries:
            if self.max_entries <= 0:
                return
            self.delete(next(iter(data)))
        data[key] = value
        index = self._index
        for node in key[1]:
            keys = index.get(node)
            if keys is None:
                index[node] = {key}
            else:
                keys.add(key)

    def delete(self, key: _CacheKey) -> None:
        """Drop one entry (no-op when absent), keeping the index exact."""
        if self.data.pop(key, None) is None:
            return
        index = self._index
        for node in key[1]:
            keys = index.get(node)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del index[node]

    def clear(self) -> None:
        self.data.clear()
        self._index.clear()

    def evict_nodes(self, dirty_nodes: Set[Node]) -> int:
        """Evict every entry whose key-set intersects ``dirty_nodes``.

        Each dirty node's index entry goes whole, so a victim is then
        unlinked only from its other nodes' entries.
        """
        index = self._index
        if not index or not dirty_nodes:
            return 0
        victims: Set[_CacheKey] = set()
        for node in index.keys() & dirty_nodes:
            victims.update(index.pop(node))
        if not victims:
            return 0
        data = self.data
        for key in victims:
            del data[key]
            for node in key[1]:
                keys = index.get(node)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del index[node]
        _MEMO_EVICTIONS.inc(len(victims))
        return len(victims)

    # ------------------------------------------------------------------
    # Version sync
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything and fast-forward to the graph's current state."""
        self.clear()
        self._version = self.graph.version
        self._cursor = self.graph.dirty_cursor
        self._time = self.graph.time

    def sync(self) -> None:
        """Bring the table up to date with the graph.

        Reads the dirty-source journal suffix since the last sync, closes
        it under the owning backend's reverse ancestor sweep, and evicts
        only the intersecting entries.  An empty table skips the sweep.
        The table is cleared wholesale instead when the journal had been
        trimmed past the cursor, or when a clock-bound table saw the
        version or the time move.
        """
        graph = self.graph
        if self.clock_bound and (graph.version, graph.time) != (
            self._version,
            self._time,
        ):
            self.reset()
            return
        if graph.version == self._version:
            return
        if self.data:
            seeds = graph.dirty_source_ids_since(self._cursor)
            if seeds is None:
                self.clear()
            else:
                cone_ids = self._closed_cone(seeds)
                _CONE_SIZE.observe(len(cone_ids))
                if cone_ids:
                    node_of_id = graph.node_of_id
                    self.evict_nodes({node_of_id(i) for i in cone_ids})
        self._version = graph.version
        self._cursor = graph.dirty_cursor

    def _closed_cone(self, seed_ids: Set[int]) -> Set[int]:
        """Ancestor closure of the dirty seeds, on the owning backend.

        A ``"csr"`` oracle rides the engine's transpose sweep; a
        ``"dict"`` oracle keeps its pure-dict profile by closing through
        the reference :func:`~repro.influence.reachability.ancestors`
        walk instead of forcing a CSR engine build just for eviction.
        Both sweeps produce the identical set (pinned by the equivalence
        suites), so memo semantics — and with them call counts — stay
        backend independent either way.
        """
        graph = self.graph
        if not seed_ids:
            return set()
        if self.cone_backend == "dict":
            node_of_id = graph.node_of_id
            # sorted(): seed_ids arrives as a set; id order fixes the walk.
            seed_nodes = [node_of_id(i) for i in sorted(seed_ids)]
            node_id = graph.node_id
            return {node_id(n) for n in ancestors(graph, seed_nodes, None)}
        return graph.csr().ancestor_ids(seed_ids, None)


class InfluenceOracle:
    """Evaluates the paper's influence spread with counting and caching.

    Args:
        graph: the shared TDN the spread is computed on.
        counter: the call counter to increment on every *real* evaluation
            (cache hits are free — they would be cached in any realistic
            implementation and the paper's counts assume as much for the
            lazy-greedy baseline).
        max_cache_entries: bound on the memo table.  When the table is
            full the *oldest* entry is evicted to admit the new one
            (FIFO), so memoization keeps working through long query-heavy
            phases instead of silently shutting off.  Entries survive
            graph version bumps unless a delta touched their reachable
            cone (see the module docstring for the invalidation contract).
        backend: ``"csr"`` (compact flat-array engine, default) or
            ``"dict"`` (reference dict-of-dict BFS).
        parallel: sharded evaluation over the CSR backend — ``None``
            (serial, default), a thread count (the oracle creates and
            owns a :class:`~repro.parallel.executor.ShardedOracleExecutor`
            that splits batched sweeps across that many threads; release
            it with :meth:`close`), or an executor instance to share
            across oracles; anything else raises ``ConfigError``.
            Values, solutions and call counts are bit-identical to
            serial evaluation.
        semantics: the influence fold this oracle evaluates — a name
            from :data:`repro.kernels.FOLD_NAMES`, a ``(name, params)``
            spec, or a :class:`~repro.kernels.Fold` instance.  The
            default ``"count"`` is the paper's ``|R(S)|``;
            ``"weighted_sum"`` scores reached nodes by ``weights`` (both
            backends); ``"hop_discount"`` and ``"time_decay"`` need the
            CSR backend.  Non-count memo keys carry the fold token, so
            two semantics sharing one graph never share cache entries.
        weights: node weights for ``"weighted_sum"`` — a mapping node ->
            weight or a callable.  Weights must be non-negative (a
            negative weight breaks monotonicity and with it every
            approximation guarantee).  ``None`` weighs every node
            ``default_weight``.  Rejected with any other semantics.
        default_weight: weight of nodes absent from the mapping (1.0
            recovers the unweighted spread exactly).

    Any tracker accepts a weighted oracle in place of the default one::

        oracle = InfluenceOracle(graph, semantics="weighted_sum",
                                 weights={"vip": 100.0})
        tracker = HistApprox(k, eps, graph, oracle)
    """

    def __init__(
        self,
        graph: TDNGraph,
        counter: Optional[CallCounter] = None,
        *,
        max_cache_entries: int = 200_000,
        backend: str = "csr",
        parallel=None,
        semantics="count",
        weights: Optional[WeightSpec] = None,
        default_weight: float = 1.0,
    ) -> None:
        if backend not in ORACLE_BACKENDS:
            raise ConfigError(
                f"backend must be one of {ORACLE_BACKENDS}, got {backend!r}"
            )
        if max_cache_entries < 0:
            raise ConfigError(f"max_cache_entries must be >= 0, got {max_cache_entries}")
        fold = resolve_fold(semantics)
        weighted = fold.name == "weighted_sum"
        if default_weight < 0:
            raise ConfigError(f"default_weight must be >= 0, got {default_weight}")
        if weights is not None and not weighted:
            raise ConfigError(
                "weights are only meaningful with semantics='weighted_sum'; "
                f"got semantics={fold.name!r}"
            )
        if fold.name not in ("count", "weighted_sum") and backend != "csr":
            raise SemanticsError(
                f"semantics {fold.name!r} requires backend='csr', got {backend!r}"
            )
        self.graph = graph
        self.backend = backend
        self.fold = fold
        #: None on the count path (the pre-fold two-element memo keys and
        #: int values), the fold's hashable token otherwise.
        self._semantics_token = None if fold.name == "count" else fold.token()
        #: Per-node weight lookup; None unless the fold is weighted_sum.
        self._weight_of: Optional[Callable[[Node], float]] = None
        if weighted:
            self._init_weights(weights, default_weight)
        self.counter = counter if counter is not None else CallCounter("oracle")
        self._executor, self._owns_executor = resolve_executor(parallel, backend)
        self._memo = MemoTable(
            graph,
            max_cache_entries,
            cone_backend=backend,
            clock_bound=fold.derives_node_values,
        )
        #: Prefetched values by memo key, all taken at the graph version
        #: and time in ``_prefetch_stamp``; never counted, never memoized.
        self._prefetched: dict = {}
        self._prefetch_stamp = (graph.version, graph.time)

    def _init_weights(
        self, weights: Optional[WeightSpec], default_weight: float
    ) -> None:
        self._default = float(default_weight)
        # Dense per-interned-id weight cache, extended lazily (ids are
        # append-only, so prefixes never go stale).  Mapping and default
        # weights only: a callable may be partial, raise or vary, so it is
        # only ever called for reached nodes.
        self._weight_array = np.empty(0, dtype=np.float64)
        self._dense_weights = weights is None or not callable(weights)
        self._uniform_default = weights is None
        if weights is None:
            self._weight_of = lambda node: self._default
        elif callable(weights):
            self._weight_of = weights
        else:
            mapping = dict(weights)
            for node, weight in mapping.items():
                if weight < 0:
                    raise ConfigError(
                        f"weight for {node!r} is negative ({weight}); weighted "
                        "spread requires non-negative weights to stay monotone"
                    )
            self._weight_of = lambda node: mapping.get(node, self._default)

    @property
    def semantics(self) -> str:
        """The registered name of this oracle's fold."""
        return self.fold.name

    @property
    def max_cache_entries(self) -> int:
        """The memo table's FIFO capacity bound."""
        return self._memo.max_entries

    @property
    def executor(self):
        """The sharded executor behind this oracle (``None`` = serial)."""
        return self._executor

    @property
    def workers(self) -> int:
        """Configured evaluation worker count (1 = serial)."""
        return self._executor.workers if self._executor is not None else 1

    def close(self) -> None:
        """Release the executor if this oracle owns one (idempotent)."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()

    def health_report(self) -> Optional[dict]:
        """The sharded executor's health snapshot.

        ``None`` for a serial oracle; otherwise the executor's
        :meth:`~repro.parallel.executor.ShardedOracleExecutor.
        health_report` (state, reason, incidents, …).
        """
        if self._executor is None:
            return None
        return self._executor.health_report()

    # ------------------------------------------------------------------
    def spread(self, nodes: Iterable[Node], min_expiry: Optional[float] = None):
        """Return ``f_t(S)`` under this oracle's semantics.

        For the default ``"count"`` fold this is the distinct-node count
        ``|R(S)|`` (an int, exactly as before the fold seam existed);
        other semantics score the same reached set through their fold and
        return a float.  ``f_t(empty set) = 0`` (the function is
        normalized).  The horizon ``min_expiry`` restricts traversal to
        edges expiring at or after it.  A non-empty set is evaluated as
        ``spread_many`` evaluates a batch of one.
        """
        key_nodes = frozenset(nodes)
        if not key_nodes:
            return 0 if self._semantics_token is None else 0.0
        return self.spread_many((key_nodes,), min_expiry)[0]

    def sync_dirty(self) -> None:
        """Sync the memo table with the graph now (evictions only).

        SIEVEADN calls this at the top of each batch, so the table reads
        the dirty journal every batch, also when the instance's horizon
        hides the whole batch and no spread follows.
        """
        self._memo.sync()

    def spread_many(
        self,
        sets: Sequence[Iterable[Node]],
        min_expiry: Optional[float] = None,
        prefetch: Optional[Prefetch] = None,
    ) -> List[Union[int, float]]:
        """Evaluate ``f_t`` for a whole batch of sets at one horizon.

        Semantically identical to ``[self.spread(s, min_expiry) for s in
        sets]`` — same values, same cache behavior, same call counting in
        the same order (the table is synced once before the batch replays
        the sequential protocol).  Misses share one bit-plane traversal
        per 64 sets on csr, or are walked one by one below the scalar
        cutover (see "The cache protocol" in the module docstring).

        ``prefetch`` is a zero-argument callable returning sets the
        caller will ask for later at this horizon.  It is called only
        when the misses' sweep has idle planes, and what it returns rides
        in them without changing any value or count (see "The cache
        protocol" in the module docstring).
        """
        self._memo.sync()
        return replay_batch_protocol(
            self._memo,
            self.counter,
            sets,
            min_expiry,
            lambda keys: self._miss_evaluator(keys, min_expiry, prefetch),
            0 if self._semantics_token is None else 0.0,
            semantics=self._semantics_token,
        )

    def marginal_gain(
        self,
        base: Iterable[Node],
        candidate: Node,
        min_expiry: Optional[float] = None,
    ):
        """Return ``f_t(base + {candidate}) - f_t(base)``.

        The base spread is typically a cache hit (it is re-used across the
        whole candidate batch), so a marginal gain usually costs one oracle
        call, exactly as in the paper's accounting.
        """
        base_set = frozenset(base)
        with_candidate = base_set | {candidate}
        if len(with_candidate) == len(base_set):
            return 0 if self._semantics_token is None else 0.0
        return self.spread(with_candidate, min_expiry) - self.spread(
            base_set, min_expiry
        )

    # ------------------------------------------------------------------
    def _miss_evaluator(
        self,
        keys: Sequence[Optional[_CacheKey]],
        min_expiry: Optional[float],
        prefetch: Optional[Prefetch],
    ) -> Callable[[_CacheKey], Union[int, float]]:
        """The evaluator of a request's misses, asked for at its first miss
        with the request's remaining memo keys (see "The cache protocol"
        in the module docstring).

        Below the scalar cutover it is the per-set walk.  Otherwise the
        distinct keys that are neither memoized nor prefetched are swept
        now, in one :meth:`_evaluate_misses` call, and each miss is served
        from that table or, when prefetched, from the prefetch store.  When
        ``len(memo)`` plus the remaining sets exceeds the capacity by
        ``overflow``, the request can evict its ``overflow`` oldest
        entries before it asks for them again, so those hits are swept
        too, and the prefetched keys as well once ``overflow`` exceeds
        ``len(memo)`` (the request may then evict its own puts).  A
        retained entry equals a fresh evaluation.  An exception drops
        every prefetched value.
        """
        walk = self._per_set_evaluator(min_expiry)
        if walk is not None:
            return walk
        memo = self._memo
        stash = self._prefetched
        graph = self.graph
        if stash and self._prefetch_stamp != (graph.version, graph.time):
            stash.clear()
        data = memo.data
        # Each put past capacity evicts the oldest entry, so the request
        # can evict at most its ``overflow`` oldest entries, and its own
        # puts (a served prefetch a later duplicate misses again) only
        # once every older entry is gone.
        overflow = len(data) + len(keys) - memo.max_entries
        evictable = set(islice(data, overflow)) if overflow > 0 else ()
        served = stash if overflow <= len(data) else ()
        wanted = dict.fromkeys(
            key
            for key in keys
            if key is not None
            and key not in served
            and (key in evictable or key not in data)
        )
        swept: dict = {}
        if wanted:
            try:
                values = self._evaluate_misses(
                    [key[1] for key in wanted], min_expiry, prefetch
                )
            except BaseException:
                stash.clear()
                raise
            swept = dict(zip(wanted, values))

        def evaluate(key: _CacheKey) -> Union[int, float]:
            value = stash.pop(key, None)
            if value is None:
                return swept[key]
            _PREFETCH_SERVED.inc()
            return value

        return evaluate

    def _per_set_evaluator(
        self, min_expiry: Optional[float]
    ) -> Optional[Callable[[_CacheKey], int]]:
        """The per-set walk of a serial csr ``count`` oracle below the
        scalar cutover, or ``None`` (see "Backends" in the module
        docstring).  Resolved at a request's first miss, never kept.
        """
        if self._semantics_token is not None or self._executor is not None:
            return None
        if self.backend != "csr":
            return None
        scalar = self.graph.csr().scalar_reach(min_expiry)
        if scalar is None:
            return None
        walk, eff = scalar
        intern_ids = self.graph.intern_ids

        def count(key: _CacheKey) -> int:
            ids, unknown = intern_ids(key[1])
            return len(walk(ids, eff)) + unknown if ids else unknown

        return count

    def _memo_key(self, min_expiry: Optional[float], key_nodes: FrozenSet[Node]):
        token = self._semantics_token
        if token is None:
            return (min_expiry, key_nodes)
        return (min_expiry, key_nodes, token)

    def _evaluate_misses(
        self,
        key_sets: Sequence[FrozenSet[Node]],
        min_expiry: Optional[float],
        prefetch: Optional[Prefetch],
    ) -> List:
        """Evaluate ``key_sets`` on the backend; a never-interned seed has
        no edges and reaches only itself, so it adds its own term.
        """
        graph = self.graph
        counting = self._semantics_token is None
        weighted = self._weight_of is not None
        if self.backend == "dict":
            values: List = []
            for key_nodes in key_sets:
                reached = reachable_set(graph, key_nodes, min_expiry)
                if not weighted:
                    values.append(len(reached))
                    continue
                reached_ids, unknown = graph.intern_ids(reached)
                seed = self._seed_weight(key_nodes) if unknown else 0.0
                values.append(seed + self._weight_of_reached(reached_ids))
            return values
        executor = self._executor
        engine = graph.csr()
        values = []
        id_sets: List[List[int]] = []
        pending: List[int] = []
        for j, key_nodes in enumerate(key_sets):
            ids, unknown = graph.intern_ids(key_nodes)
            if weighted:
                values.append(self._seed_weight(key_nodes) if unknown else 0.0)
            else:
                values.append(unknown if counting else float(unknown))
            if ids:
                pending.append(j)
                id_sets.append(ids)
        if not id_sets:
            return values
        lone = id_sets[0] if len(id_sets) == 1 else None
        riders: List[Tuple[Any, List[int]]] = []
        if (
            prefetch is not None
            and lone is None
            and (not weighted or self._dense_weights)
            and engine.scalar_reach(min_expiry) is None  # no per-set walks
        ):
            riders = self._riders(prefetch, key_sets, len(id_sets), min_expiry)
            id_sets.extend(ids for _, ids in riders)
        sweeps: Any = engine
        args: tuple = (id_sets, min_expiry)
        if executor is not None and lone is None:
            sweeps, args = executor, (graph, *args)  # same names, plus graph
        if not (counting or weighted):
            terms = sweeps.fold_spread_sums(*args, fold=self.fold)
        elif lone is not None:  # one walk beats a one-plane sweep
            terms = [
                engine.reachable_count(lone, min_expiry)
                if counting
                else self._weight_of_reached(engine.reachable_ids(lone, min_expiry))
            ]
        elif counting:
            terms = sweeps.spread_counts(*args)
        elif self._uniform_default:
            terms = [self._default * n for n in sweeps.spread_counts(*args)]
        elif self._dense_weights:
            weights = self._weights_upto(graph.num_interned)
            terms = sweeps.weighted_spread_sums(*args, weights=weights)
        else:
            # A weight callable is only ever invoked on the caller's thread.
            reached_sets = sweeps.reachable_ids_many(*args)
            terms = [self._weight_of_reached(reached) for reached in reached_sets]
        for j, term in zip(pending, terms):
            values[j] += term
        if riders:
            self._stash(riders, terms[len(pending) :], 0 if counting else 0.0)
        return values

    def _riders(
        self,
        prefetch: Prefetch,
        key_sets: Sequence[FrozenSet[Node]],
        swept: int,
        min_expiry: Optional[float],
    ) -> List[Tuple[Any, List[int]]]:
        """``(memo key, ids)`` of the prefetch sets that fit the sweep's
        idle planes: never a new 64-set chunk, and under an executor
        never a request it would otherwise have served serially.  Sets
        already in the memo, the store or this batch ride nowhere.
        """
        room = -swept % PLANE_WIDTH
        executor = self._executor
        if executor is not None and swept < executor.min_batch:
            room = min(room, executor.min_batch - 1 - swept)
        if room <= 0:
            return []
        probe = self._memo.data.get
        stash = self._prefetched
        taken = set(key_sets)
        intern_ids = self.graph.intern_ids
        riders: List[Tuple[Any, List[int]]] = []
        for nodes in prefetch():
            key_nodes = frozenset(nodes)
            if not key_nodes or key_nodes in taken:
                continue
            key = self._memo_key(min_expiry, key_nodes)
            if key in stash or probe(key) is not None:
                continue
            ids, unknown = intern_ids(key_nodes)
            if unknown:  # left to its own miss, like any never-interned seed
                continue
            taken.add(key_nodes)
            riders.append((key, ids))
            if len(riders) == room:
                break
        return riders

    def _stash(self, riders, terms, zero) -> None:
        """Keep the riders' values for the current graph version and time."""
        stash = self._prefetched
        stamp = (self.graph.version, self.graph.time)
        if self._prefetch_stamp != stamp:
            stash.clear()
            self._prefetch_stamp = stamp
        for (key, _), term in zip(riders, terms):
            stash[key] = zero + term
        _PREFETCHED.inc(len(riders))

    # ------------------------------------------------------------------
    # weighted_sum
    # ------------------------------------------------------------------
    def _checked_weight(self, node: Node) -> float:
        weight_of = self._weight_of
        assert weight_of is not None  # only weighted_sum oracles fold weights
        weight = weight_of(node)
        if weight < 0:
            raise ConfigError(f"weight callable returned negative value for {node!r}")
        return weight

    def _seed_weight(self, key_nodes: FrozenSet[Node]) -> float:
        """Total weight of the never-interned seeds, in ``repr`` order.

        A never-interned seed has no edges and reaches only itself, so it
        contributes its own weight directly.
        """
        node_id = self.graph.node_id
        value = 0.0
        for node in sorted((n for n in key_nodes if node_id(n) is None), key=repr):
            value += self._checked_weight(node)
        return value

    def _weight_of_reached(self, reached) -> float:
        """Total weight of a reached id set, in ascending-id order."""
        if not reached:
            return 0.0
        if self._uniform_default:
            return self._default * len(reached)
        if not self._dense_weights:
            node_of_id = self.graph.node_of_id
            return sum(
                self._checked_weight(node_of_id(reached_id))
                for reached_id in sorted(reached)
            )
        return dense_weight_sum(self._weights_upto(self.graph.num_interned), reached)

    def _weights_upto(self, count: int) -> np.ndarray:
        """The dense id-indexed weight array, extended to ``count`` entries."""
        have = self._weight_array.shape[0]
        if have < count:
            node_of_id = self.graph.node_of_id
            fresh = np.asarray(
                [self._checked_weight(node_of_id(i)) for i in range(have, count)],
                dtype=np.float64,
            )
            self._weight_array = np.concatenate([self._weight_array, fresh])
        return self._weight_array

    # ------------------------------------------------------------------
    @property
    def calls(self) -> int:
        """Total real evaluations so far."""
        return self.counter.total

    def invalidate(self) -> None:
        """Drop the memo table and every prefetched value (tests use this
        to force recomputation)."""
        self._memo.reset()
        self._prefetched.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InfluenceOracle(backend={self.backend!r}, "
            f"semantics={self.semantics!r}, "
            f"calls={self.counter.total}, cached={len(self._memo)})"
        )


def top_spreaders(
    graph: TDNGraph,
    count: int,
    min_expiry: Optional[float] = None,
) -> List[Node]:
    """The ``count`` alive nodes with the largest singleton spreads.

    A one-shot popularity ranking (NOT a solution to the paper's set
    problem — it ignores overlap between reach sets; use the trackers for
    that), useful for analysis and as a cheap warm start.  Every singleton
    is evaluated in one bit-plane ``spread_counts`` sweep, outside any
    oracle's call accounting; ties break by ``repr``.
    """
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    nodes = list(graph.node_set())
    if not nodes:
        return []
    ids, _ = graph.intern_ids(nodes)  # every alive node is interned
    spreads = graph.csr().spread_counts([[i] for i in ids], min_expiry)
    ranked = sorted(zip(nodes, spreads), key=lambda pair: (-pair[1], repr(pair[0])))
    return [node for node, _ in ranked[:count]]
