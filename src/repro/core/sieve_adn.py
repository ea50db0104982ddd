"""SIEVEADN: influential-node tracking on addition-only networks (Alg. 1).

SIEVEADN adapts SieveStreaming to the node stream induced by arriving edges:
for each batch it computes the changed-node set ``V_t-bar``
(:func:`repro.influence.changed.changed_nodes`, on the oracle's engine
family), lazily updates the threshold grid with the largest singleton
spread, and offers every changed node to every sieve set whose threshold
its *current* marginal gain clears.  The oracle's memo sync at the top of
each batch only evicts; it derives no candidates.  Two differences from
classic SieveStreaming (paper Section III-A) make the correctness proof
non-trivial but are handled naturally here:

* the same node may appear many times in the node stream — sieve sets refuse
  duplicates and a rejected node can be accepted later, when its marginal
  gain (re-evaluated at the current time) has grown;
* the objective ``f_t`` is time-varying — on an ADN it can only grow for a
  fixed set, which is exactly what Theorem 2's induction uses.

The instance evaluates all spreads at its ``min_expiry`` horizon, so the
same class serves standalone ADN tracking (``min_expiry=None``) and life as
a building block inside BASICREDUCTION / HISTAPPROX (horizon ``t + i``; see
"Horizon filtering" in :mod:`repro.tdn.graph`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Union

from repro.core.thresholds import ThresholdSet
from repro.core.tracker import Solution
from repro.influence.changed import changed_nodes, check_changed_mode
from repro.influence.oracle import InfluenceOracle
from repro.tdn.batch import EdgeBatch, as_edge_batch
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

Node = Hashable


class SieveADN:
    """The paper's Alg. 1 with a configurable evaluation horizon.

    Args:
        k: cardinality budget.
        epsilon: threshold-grid resolution (the paper's eps).
        graph: the shared TDN (batches must be inserted before
            :meth:`on_batch` is called).
        oracle: counted influence oracle over ``graph``; a private one is
            created when omitted.
        min_expiry: evaluation horizon — only edges with expiry at or above
            it are visible to this instance (``None`` = every alive edge).
        changed_mode: how ``V_t-bar`` is derived from a batch
            (``"ancestors"`` exact-superset, or ``"sources"`` heuristic).
    """

    label = "SieveADN"

    def __init__(
        self,
        k: int,
        epsilon: float,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        min_expiry: Optional[float] = None,
        changed_mode: str = "ancestors",
    ) -> None:
        self.graph = graph
        self.oracle = oracle if oracle is not None else InfluenceOracle(graph)
        self.min_expiry = min_expiry
        self.changed_mode = check_changed_mode(changed_mode)
        self.thresholds = ThresholdSet(k, epsilon)
        self.k = self.thresholds.k
        self.epsilon = self.thresholds.epsilon
        self._last_time = 0

    # ------------------------------------------------------------------
    def on_batch(
        self, t: int, batch: Union[EdgeBatch, Iterable[Interaction]]
    ) -> None:
        """Process the edges that arrived at time ``t`` (Alg. 1 lines 3-11).

        The batch must already be present in the shared graph; rows are
        read as their columns (:func:`~repro.tdn.batch.as_edge_batch`).
        Edges whose expiry falls below this instance's horizon are
        ignored — they are invisible in its subgraph.
        """
        batch = as_edge_batch(t, batch)
        self._last_time = t
        # One dirty sync per batch, before the horizon filter: the oracle's
        # delta-aware memo table must observe every structural change (even
        # edges this instance's horizon hides).
        sync = getattr(self.oracle, "sync_dirty", None)
        if sync is not None:
            sync()
        if self.min_expiry is not None:
            batch = batch.reaching(self.min_expiry)
        if not batch:
            return
        # The changed-node sweep runs on the same engine family as the
        # oracle: array-visited transpose sweep for "csr", reference dict
        # walk for "dict" (identical sets and ordering either way).
        # Duck-typed oracles without a backend attribute get the dict walk.
        candidates = changed_nodes(
            self.graph,
            batch,
            self.min_expiry,
            self.changed_mode,
            backend=getattr(self.oracle, "backend", "dict"),
        )
        self.process_candidates(candidates)

    def on_candidates(self, t: int, candidates: Sequence[Node]) -> None:
        """Process a batch whose ``V_t-bar`` the caller already derived.

        BASICREDUCTION and HISTAPPROX derive every instance's candidates
        from one shared sweep (:func:`repro.influence.changed.
        changed_node_labels`), so an instance they feed skips
        :meth:`on_batch`'s own sweep: it only takes the time, syncs the
        oracle's memo with the graph and runs the sieve.
        """
        self._last_time = t
        sync = getattr(self.oracle, "sync_dirty", None)
        if sync is not None:
            sync()
        self.process_candidates(candidates)

    def process_candidates(self, candidates: Iterable[Node]) -> None:
        """Feed the node stream directly (Alg. 1 lines 4-11).

        Exposed separately so HISTAPPROX can replay fill-in edges into a
        copied instance, and so tests can drive the sieve with hand-built
        node streams.
        """
        candidates = list(candidates)
        if not candidates:
            return
        # Lines 4-7: lazily maintain the threshold grid.  The singleton
        # sweep is issued as one batched oracle call group so the CSR
        # backend amortizes a single snapshot build across the whole
        # candidate batch (call counts are identical to per-node spreads).
        # The sieve keys ride in its idle planes: they are the pairs'
        # bases below and the query's sets, at this horizon.
        oracle = self.oracle
        min_expiry = self.min_expiry
        singletons = oracle.spread_many(
            [(node,) for node in candidates], min_expiry, prefetch=self._sieve_keys
        )
        singleton_values = {}
        for node, singleton in zip(candidates, singletons):
            singleton_values[node] = singleton
            self.thresholds.update_delta(singleton)
        # Lines 8-11: sieve each candidate against each threshold.  By
        # submodularity the marginal gain of ``node`` w.r.t. any set is at
        # most its singleton value, so thresholds above it can never be
        # cleared: since items() lists thresholds in increasing order we
        # stop there without spending oracle calls.  This pruning is what
        # keeps the per-batch call count at the paper's reported scale.
        # The grid cannot change below this point, so items() is read once.
        # Adding a node to one sieve never changes another sieve's key, so a
        # node's (S, S + node) pairs for every sieve it may join are known
        # up front and go to the oracle as one batch, whose replay protocol
        # keeps the accounting of one call per pair.
        k = self.k
        grid = self.thresholds.items()
        for node in candidates:
            upper_bound = singleton_values[node]
            offers = []
            pairs = []
            for threshold, sieve in grid:
                if threshold > upper_bound:
                    break
                key = sieve.key
                if len(key) >= k or node in key:
                    continue
                offers.append((threshold, sieve))
                pairs.append(key)
                pairs.append(key | {node})
            if not offers:
                continue
            values = oracle.spread_many(pairs, min_expiry)
            for index, (threshold, sieve) in enumerate(offers):
                base = values[2 * index]
                with_node = values[2 * index + 1]
                sieve.cached_value = float(base)
                if with_node - base >= threshold:
                    sieve.add(node)
                    sieve.cached_value = float(with_node)

    def _sieve_keys(self):
        """The non-empty sieve keys (lazily: only a sweep with idle planes asks)."""
        return (sieve.key for sieve in self.thresholds.sets() if sieve.nodes)

    # ------------------------------------------------------------------
    def query(self) -> Solution:
        """Return the best sieve set under the current ``f_t`` (Alg. 1 line 12)."""
        best_nodes: List[Node] = []
        best_value = 0.0
        # One batch, with accounting identical to one spread() per sieve
        # (an empty batch is skipped: it would still sync the memo).
        sieves = [sieve for sieve in self.thresholds.sets() if sieve.nodes]
        values = (
            self.oracle.spread_many([sieve.key for sieve in sieves], self.min_expiry)
            if sieves
            else []
        )
        for sieve, value in zip(sieves, values):
            if value > best_value:
                best_value = value
                best_nodes = list(sieve.nodes)
        return Solution(
            nodes=tuple(best_nodes), value=float(best_value), time=self._last_time
        )

    def query_value(self) -> float:
        """The solution value only, evaluated exactly at the current time."""
        return self.query().value

    def query_value_cached(self) -> float:
        """Lower-bound readout of ``g_t`` from the sieves' cached values.

        Free of oracle calls: each sieve's value was recorded at its last
        real evaluation and can only have grown since (addition-only view).
        HISTAPPROX's redundancy test runs on this readout, matching the
        paper's complexity accounting (Theorem 8 charges ReduceRedundancy no
        oracle factor).
        """
        best = 0.0
        for sieve in self.thresholds.sets():
            if sieve.cached_value > best:
                best = sieve.cached_value
        return best

    # ------------------------------------------------------------------
    def copy(self, min_expiry: Optional[float] = None) -> "SieveADN":
        """Duplicate this instance, optionally re-homing it to a new horizon.

        HISTAPPROX creates the instance for a fresh lifetime ``l`` by copying
        its successor and then feeding the copy the edges the successor never
        saw; the copy shares the graph and oracle but owns its sieve state.
        """
        dup = SieveADN(
            self.k,
            self.epsilon,
            self.graph,
            self.oracle,
            min_expiry=self.min_expiry if min_expiry is None else min_expiry,
            changed_mode=self.changed_mode,
        )
        dup.thresholds = self.thresholds.copy()
        dup._last_time = self._last_time
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SieveADN(k={self.k}, epsilon={self.epsilon}, "
            f"min_expiry={self.min_expiry}, thresholds={len(self.thresholds)})"
        )
