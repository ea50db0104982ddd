"""Weighted influence spread: the paper's "define your own f_t" hook.

Right after Definition 3 the paper notes that *any* influence spread works
with the framework "as long as Theorem 1 holds" (normalized, monotone,
submodular).  The canonical generalization is node-weighted reachability:

    f_t(S) = sum of w(v) over v reachable from S in G_t

with non-negative node weights ``w``.  It is normalized (empty sum),
monotone (reachable sets grow with S), and submodular (a weighted coverage
function), so every guarantee in the paper carries over verbatim.

Practical uses: weighting users by follower count or monetary value
(viral-marketing ROI), weighting places by capacity, or zero-weighting
bot accounts.  :class:`WeightedInfluenceOracle` is a drop-in replacement
for :class:`~repro.influence.oracle.InfluenceOracle` — construct any
tracker with it and the algorithms never know the difference.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.influence.oracle import (
    _PENDING,
    ORACLE_BACKENDS,
    MemoTable,
    replay_batch_protocol,
    resolve_executor,
)
from repro.errors import ConfigError
from repro.kernels import dense_weight_sum
from repro.influence.reachability import reachable_set
from repro.tdn.graph import TDNGraph
from repro.utils.counters import CallCounter

Node = Hashable
WeightSpec = Union[Dict[Node, float], Callable[[Node], float]]
_CacheKey = Tuple[Optional[float], FrozenSet[Node]]


class WeightedInfluenceOracle:
    """Counted, cached evaluation of node-weighted reachability spread.

    Args:
        graph: the shared TDN.
        weights: either a mapping node -> weight or a callable; missing
            nodes default to ``default_weight``.  Weights must be
            non-negative — a negative weight breaks monotonicity and with
            it every approximation guarantee.
        default_weight: weight for nodes absent from the mapping (1.0
            recovers the paper's unweighted spread exactly).
        counter: shared call counter (fresh one by default).
        backend: ``"csr"`` (default) computes the reachable id set on the
            graph's delta-CSR engine; with mapping/default weights it sums
            a dense per-id node-weight array over it — one vectorized
            gather instead of a per-node Python weight lookup — while a
            weight *callable* is still invoked once per reached node (it
            may be partial or stateful, so it is never pre-evaluated for
            unreached nodes).  ``"dict"`` is the reference dict BFS.  Both
            return identical values and spend identical calls.
        memo_mode: ``"delta"`` (default) retains memo entries across graph
            versions, evicting only keys whose reachable cone the changes
            touched (weighted values obey the same contract: a cone no
            delta touched reaches the same nodes, hence sums the same
            weights); ``"version"`` restores the wholesale per-version
            clear.  See :mod:`repro.influence.oracle` for the contract.
        parallel: sharded evaluation over the CSR backend (``None``, a
            worker count, or a shared executor — the same contract as
            :class:`InfluenceOracle`).  With mapping/default weights the
            shard threads fold the dense weight array into 64-wide
            *weight sums* in their bit-plane sweeps; a weight callable
            instead makes them return per-set reachable id sets, and the
            callable runs on the caller's thread only.  Either way values
            stay bit-identical to serial evaluation (the kernel's
            canonical ascending-id summation order).

    The interface matches :class:`InfluenceOracle` (``spread``,
    ``marginal_gain``, ``calls``), so it can be injected into any
    algorithm::

        oracle = WeightedInfluenceOracle(graph, {"vip": 100.0})
        tracker = HistApprox(k, eps, graph, oracle)
    """

    def __init__(
        self,
        graph: TDNGraph,
        weights: Optional[WeightSpec] = None,
        *,
        default_weight: float = 1.0,
        counter: Optional[CallCounter] = None,
        max_cache_entries: int = 200_000,
        backend: str = "csr",
        memo_mode: str = "delta",
        parallel=None,
    ) -> None:
        if default_weight < 0:
            raise ConfigError(f"default_weight must be >= 0, got {default_weight}")
        if max_cache_entries < 0:
            raise ConfigError(f"max_cache_entries must be >= 0, got {max_cache_entries}")
        if backend not in ORACLE_BACKENDS:
            raise ConfigError(
                f"backend must be one of {ORACLE_BACKENDS}, got {backend!r}"
            )
        self.graph = graph
        self.backend = backend
        self.counter = (
            counter if counter is not None else CallCounter("weighted-oracle")
        )
        self._default = float(default_weight)
        # Dense per-interned-id weight cache, extended lazily as new nodes
        # appear (ids are append-only, so prefixes never go stale).  Only
        # used for mapping/default weights, which are total and pure; a
        # user *callable* is never pre-evaluated for nodes outside the
        # reachable set (it may raise for them, be partial, or vary), so
        # the csr path falls back to per-reached-node calls for it —
        # exactly the dict backend's evaluation pattern.
        self._weight_array = np.empty(0, dtype=np.float64)
        self._dense_weights = weights is None or not callable(weights)
        self._uniform_default = weights is None
        if weights is None:
            self._weight_of: Callable[[Node], float] = lambda node: self._default
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
        self._executor, self._owns_executor = resolve_executor(parallel, backend)
        self._memo = MemoTable(
            graph, max_cache_entries, memo_mode, cone_backend=backend
        )
        self._memo.executor = self._executor

    # ------------------------------------------------------------------
    @property
    def memo_mode(self) -> str:
        """The active memo invalidation policy (``"delta"`` | ``"version"``)."""
        return self._memo.memo_mode

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
        """The sharded executor's degradation/health snapshot (None = serial)."""
        if self._executor is None:
            return None
        return self._executor.health_report()

    def sync_dirty(self):
        """Sync the memo table now; returns the dirty cone when one ran.

        Interface parity with :meth:`InfluenceOracle.sync_dirty`, so
        SIEVEADN shares one ancestor sweep per batch with a weighted
        oracle too.
        """
        return self._memo.sync(want_cone=True)

    def spread(
        self, nodes: Iterable[Node], min_expiry: Optional[float] = None
    ) -> float:
        """Total weight of nodes reachable from ``nodes``."""
        key_nodes = frozenset(nodes)
        if not key_nodes:
            return 0.0
        self._memo.sync()
        key: _CacheKey = (min_expiry, key_nodes)
        hit = self._memo.get(key)
        if hit is not None and hit is not _PENDING:
            return hit
        self.counter.increment()
        if self.backend == "dict":
            value = 0.0
            reached = reachable_set(self.graph, key_nodes, min_expiry)
            for node in sorted(reached, key=self._node_order_key):
                value += self._checked_weight(node)
        else:
            value = self._csr_spread(key_nodes, min_expiry)
        self._memo.put(key, value)
        return value

    def _checked_weight(self, node: Node) -> float:
        weight = self._weight_of(node)
        if weight < 0:
            raise ConfigError(f"weight callable returned negative value for {node!r}")
        return weight

    def _node_order_key(self, node: Node) -> Tuple[int, object]:
        """Total order for folding float weights over node sets.

        Interned nodes sort by id (ascending — the canonical summation
        order of :func:`repro.kernels.dense_weight_sum`), never-interned
        nodes after them by ``repr``.  Folding in this order keeps the
        dict backend bit-identical across PYTHONHASHSEED values.
        """
        interned = self.graph.node_id(node)
        if interned is None:
            return (1, repr(node))
        return (0, interned)

    def _split_seeds(self, key_nodes: FrozenSet[Node]) -> Tuple[List[int], float]:
        """Interned seed ids plus the weight of never-interned seeds.

        A never-interned seed has no edges and reaches only itself, so it
        contributes its own weight directly.  Iteration runs in canonical
        node order so the uninterned-weight fold is order-deterministic.
        """
        node_id = self.graph.node_id
        ids: List[int] = []
        value = 0.0
        for node in sorted(key_nodes, key=self._node_order_key):
            interned = node_id(node)
            if interned is None:
                value += self._checked_weight(node)
            else:
                ids.append(interned)
        return ids, value

    def _weight_of_reached(self, reached) -> float:
        """Total weight of a reached id set (dense gather when possible).

        Summation runs in the canonical ascending-id order of
        :func:`repro.kernels.dense_weight_sum`, so the value is
        bit-identical no matter where the reached set came from — a
        serial BFS, the weighted bit-plane kernel, or a shard thread.
        """
        if not reached:
            return 0.0
        if self._uniform_default:
            # No mapping at all: every node weighs default_weight.
            return self._default * len(reached)
        if not self._dense_weights:
            node_of_id = self.graph.node_of_id
            return sum(
                self._checked_weight(node_of_id(reached_id))
                for reached_id in sorted(reached)
            )
        weights = self._weights_upto(self.graph.num_interned)
        return dense_weight_sum(weights, reached)

    def _csr_spread(
        self, key_nodes: FrozenSet[Node], min_expiry: Optional[float]
    ) -> float:
        """Sum the dense weight array over the engine's reachable id set."""
        ids, value = self._split_seeds(key_nodes)
        if not ids:
            return value
        reached = self.graph.csr().reachable_ids(ids, min_expiry)
        return value + self._weight_of_reached(reached)

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

    def spread_many(
        self,
        sets: Sequence[Iterable[Node]],
        min_expiry: Optional[float] = None,
    ) -> List[float]:
        """Evaluate the weighted spread for a whole batch of sets.

        Same sequential-replay protocol as :meth:`InfluenceOracle.
        spread_many` — identical values, cache behavior and call counts
        as a loop of :meth:`spread` — but distinct misses are evaluated
        together on the CSR backend through the *weighted bit-plane*
        kernel: dense weights fold into the shared multi-source sweep (64
        weighted evaluations per physical traversal, serial or sharded),
        while weight callables keep the per-set reachable-id path so they
        are only ever invoked on the caller's thread.
        """
        if self.backend == "dict":
            return [self.spread(nodes, min_expiry) for nodes in sets]
        self._memo.sync()
        return replay_batch_protocol(
            self._memo, self.counter, sets, min_expiry, self._evaluate_batch, 0.0
        )

    def _evaluate_batch(
        self, key_sets: Sequence[FrozenSet[Node]], min_expiry: Optional[float]
    ) -> List[float]:
        """Evaluate distinct misses via the weighted bit-plane kernel.

        Dense weights (mapping / default) never materialize a reachable
        id set per miss any more: the engine — or, under ``parallel``,
        the executor's shard threads — folds the dense weight array
        directly into the shared bit-plane sweep, 64 weighted evaluations
        per physical traversal.  Uniform weights ride the plain counted
        sweep (``count * default_weight``), and a weight *callable* keeps
        the per-set reachable-id path so it is only ever invoked on the
        caller's thread, for actually reached nodes.
        """
        values: List[float] = [0.0] * len(key_sets)
        id_sets: List[List[int]] = []
        pending: List[int] = []
        for j, key_nodes in enumerate(key_sets):
            ids, base_value = self._split_seeds(key_nodes)
            values[j] = base_value
            if ids:
                pending.append(j)
                id_sets.append(ids)
        if not id_sets:
            return values
        graph = self.graph
        executor = self._executor
        if not self._dense_weights:
            # Callable weights stay on this thread: shards return id sets.
            if executor is not None:
                reached_sets = executor.reachable_ids_many(
                    graph, id_sets, min_expiry
                )
            else:
                engine = graph.csr()
                reached_sets = [
                    engine.reachable_ids(ids, min_expiry) for ids in id_sets
                ]
            for j, reached in zip(pending, reached_sets):
                values[j] += self._weight_of_reached(reached)
        elif self._uniform_default:
            # No mapping at all: the counted sweep carries the value.
            if executor is not None:
                counts = executor.spread_counts(graph, id_sets, min_expiry)
            else:
                counts = graph.csr().spread_counts(id_sets, min_expiry)
            for j, count in zip(pending, counts):
                values[j] += self._default * count
        else:
            weights = self._weights_upto(graph.num_interned)
            if executor is not None:
                sums = executor.weighted_spread_sums(
                    graph, id_sets, min_expiry, weights=weights
                )
            else:
                sums = graph.csr().weighted_spread_sums(
                    id_sets, min_expiry, weights
                )
            for j, value in zip(pending, sums):
                values[j] += value
        return values

    def marginal_gain(
        self,
        base: Iterable[Node],
        candidate: Node,
        min_expiry: Optional[float] = None,
    ) -> float:
        """``f(base + candidate) - f(base)`` under the weighted objective."""
        base_set = frozenset(base)
        with_candidate = base_set | {candidate}
        if len(with_candidate) == len(base_set):
            return 0.0
        return self.spread(with_candidate, min_expiry) - self.spread(
            base_set, min_expiry
        )

    @property
    def calls(self) -> int:
        """Total real evaluations so far."""
        return self.counter.total

    def invalidate(self) -> None:
        """Drop the memo table."""
        self._memo.reset()
