"""HISTAPPROX: smooth-histogram compression of BASICREDUCTION (Alg. 3).

BASICREDUCTION's weakness is that edges with long lifetimes fan out to up to
``L`` SIEVEADN instances.  HISTAPPROX keeps only a *histogram* of instances
— the index set ``x_t`` — and discards any instance whose output value is
eps-close to a maintained neighbour (Definition 4).  The smooth-histogram
property (Theorem 6) then bounds the loss: the head of the histogram is a
``(1/3 - eps)``-approximate solution at every time (Theorem 7), while the
number of live instances drops from ``L`` to ``O(log(k)/eps)`` (Theorem 8).

As everywhere in this reproduction, instances are keyed by their absolute
horizon ``h = t + l`` (see "Horizon filtering" in :mod:`repro.tdn.graph`),
so:

* Alg. 3's index shift (line 7) is a no-op;
* an arrival belongs to the group of the lifetime it has left at ``t``,
  so the group's horizon is simply the arrival's expiry: the batch is
  grouped by its expiry column (line 3);
* an instance terminates when ``t`` reaches its horizon (line 5);
* "feed the new instance the edges of ``G_t`` with lifetime in ``[l, l*)``"
  (line 15) is a range scan of the shared graph's expiry buckets over
  ``[t + l, t + l*)``: the scanned edges' sources, labelled by their
  expiry, seed one changed-node sweep and the instance takes the
  candidates at its horizon (no ``Interaction`` rows are built);
* line 17's "feed the group to every instance at or below its horizon"
  is one widest-path changed-node sweep per group
  (:func:`~repro.influence.changed.changed_node_labels`) whose labels
  give every fed instance its own ``V_t-bar``;
* unbounded maximum lifetime ``L`` — the headline capability HISTAPPROX adds
  over BASICREDUCTION — is natural: an infinite-lifetime edge simply owns
  the ``math.inf`` horizon.

The optional *head refinement* (the paper's Section IV closing remark)
re-feeds the head instance copy with the alive edges below its horizon at
query time, upgrading the guarantee back to ``(1/2 - eps)`` at extra oracle
cost; the ablation benchmark measures the trade.
"""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, Iterable, List, Optional, Union

from repro.core.sieve_adn import SieveADN
from repro.core.tracker import Solution, check_horizon_oracle
from repro.errors import check_fraction, check_positive_int
from repro.influence.changed import (
    Labelled,
    candidates_at,
    changed_node_labels,
    latest_expiry_by_source,
)
from repro.influence.oracle import InfluenceOracle
from repro.tdn.batch import EdgeBatch, as_edge_batch
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

Horizon = float  # int horizons plus math.inf for infinite lifetimes
Node = Hashable


class HistApprox:
    """The paper's Alg. 3, horizon-keyed, with optional head refinement.

    Args:
        k: cardinality budget.
        epsilon: controls *both* the sieve grid resolution and the
            histogram redundancy threshold, as in the paper.
        graph: shared TDN.
        oracle: counted oracle (private one created when omitted).
        refine_head: when True, :meth:`query` upgrades the head output to
            the ``(1/2 - eps)`` guarantee by processing the alive edges the
            head never saw (extra oracle calls per query).
    """

    label = "HistApprox"

    def __init__(
        self,
        k: int,
        epsilon: float,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        refine_head: bool = False,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.graph = graph
        self.oracle = check_horizon_oracle(
            oracle if oracle is not None else InfluenceOracle(graph), "HistApprox"
        )
        self.refine_head = refine_head
        self._horizons: List[Horizon] = []  # sorted ascending; mirrors x_t
        self._instances: Dict[Horizon, SieveADN] = {}
        self._last_time = 0

    # ------------------------------------------------------------------
    # Alg. 3 main loop
    # ------------------------------------------------------------------
    def on_batch(
        self, t: int, batch: Union[EdgeBatch, Iterable[Interaction]]
    ) -> None:
        """Process the arrivals of step ``t`` group-by-group (Alg. 3 line 3).

        The group ``l`` holds the edges with ``l`` steps left at ``t``,
        the ones expiring at ``t + l``, so the batch is grouped by expiry
        and an edge's group is its horizon.  Groups are visited in
        increasing lifetime order (infinite last), matching the paper's
        ``l = 1..L`` loop; empty groups are skipped — ProcessEdges on an
        empty group would only create spurious instances.
        """
        batch = as_edge_batch(t, batch)
        self._last_time = t
        self._expire(t)
        if not batch:
            return
        groups: Dict[Horizon, List[Node]] = {}
        for source, expiry in zip(batch.sources, batch.expiries):
            sources = groups.get(expiry)
            if sources is None:
                groups[expiry] = [source]
            else:
                sources.append(source)
        for horizon in sorted(groups):
            self._process_group(t, horizon, groups[horizon])

    def _process_group(self, t: int, horizon: Horizon, sources: List[Node]) -> None:
        """ProcessEdges (Alg. 3 lines 8-18) for the group expiring at ``horizon``."""
        if horizon not in self._instances:
            self._create_instance(t, horizon)
        # Line 17: feed the group to every instance at or below its horizon.
        # Every group edge expires at ``horizon``, so one sweep labels each
        # candidate with the widest horizon whose instance it reaches.
        labelled = self._labels(dict.fromkeys(sources, horizon))
        position = bisect.bisect_right(self._horizons, horizon)
        for existing in self._horizons[:position]:
            self._instances[existing].on_candidates(
                t, candidates_at(labelled, existing)
            )
        # Line 18.
        self._reduce_redundancy()

    def _labels(self, seeds: Dict[Node, float]) -> Labelled:
        """The shared changed-node sweep, on the oracle's engine family."""
        return changed_node_labels(
            self.graph, seeds, backend=getattr(self.oracle, "backend", "dict")
        )

    def _fill(self, t: int, instance: SieveADN, lo: Horizon, hi: Horizon) -> None:
        """Feed ``instance`` the alive edges with expiry in ``[lo, hi)``.

        Line 15's back-fill: the edges are seeds labelled by their expiry
        (all at or above ``lo``, the instance's horizon), so the sweep
        reads them straight off the graph's expiry buckets.
        """
        seeds = latest_expiry_by_source(
            (u, expiry) for u, _, expiry in self.graph.edges_with_expiry_in(lo, hi)
        )
        if seeds:
            instance.on_candidates(t, candidates_at(self._labels(seeds), lo))

    def _create_instance(self, t: int, horizon: Horizon) -> None:
        """Lines 9-16: instantiate the missing index ``l = horizon - t``.

        Without a successor the instance starts empty — the largest live
        horizon always tops every alive edge's expiry (the successor-less
        case of Fig. 6(b)), so there is nothing to back-fill.  With a
        successor, the instance is a copy of it plus the alive edges whose
        expiry lies in ``[horizon, successor)`` (Fig. 6(c)).
        """
        position = bisect.bisect_left(self._horizons, horizon)
        if position == len(self._horizons):
            instance = SieveADN(
                self.k,
                self.epsilon,
                self.graph,
                self.oracle,
                min_expiry=horizon,
            )
        else:
            successor = self._horizons[position]
            instance = self._instances[successor].copy(min_expiry=horizon)
            self._fill(t, instance, horizon, successor)
        bisect.insort(self._horizons, horizon)
        self._instances[horizon] = instance

    # ------------------------------------------------------------------
    # Redundancy removal (Alg. 3 lines 19-22)
    # ------------------------------------------------------------------
    def _reduce_redundancy(self) -> None:
        """Drop instances sandwiched between eps-close neighbours.

        The paper's Alg. 3 lines 19-22, as a single forward pass: for each
        kept index ``i`` (ascending), advance a probe to the largest
        ``j > i`` whose value still satisfies ``g(j) >= (1 - eps) * g(i)``,
        delete every index strictly between them, and continue with ``j``
        as the next anchor.  ``g`` is non-increasing in the index (larger
        horizons see fewer edges), so the probe never needs to back up and
        the whole pass is O(H) — each comparison either ends an anchor's
        scan or deletes an index for good.  The head (index 0) is always
        the first anchor and is never deleted.

        Values are the instances' cached readouts — maintained as a
        by-product of candidate processing — so redundancy removal spends
        no oracle calls, matching the paper's Theorem 8 accounting.
        """
        horizons = self._horizons
        if len(horizons) < 3:
            return
        values = [self._instances[h].query_value_cached() for h in horizons]
        kept = [0]
        anchor = 0
        while anchor < len(horizons) - 1:
            cutoff = (1.0 - self.epsilon) * values[anchor]
            probe = anchor + 1
            while probe + 1 < len(horizons) and values[probe + 1] >= cutoff:
                probe += 1
            kept.append(probe)
            anchor = probe
        if len(kept) == len(horizons):
            return
        survivors = [horizons[index] for index in kept]
        removed = set(horizons) - set(survivors)
        for victim in removed:
            del self._instances[victim]
        self._horizons = survivors

    # ------------------------------------------------------------------
    def _expire(self, t: int) -> None:
        """Line 5: terminate instances whose horizon the clock has reached."""
        while self._horizons and self._horizons[0] <= t:
            del self._instances[self._horizons[0]]
            del self._horizons[0]

    # ------------------------------------------------------------------
    def query(self) -> Solution:
        """Output of the head instance ``A_{x_1}`` (Alg. 3 line 4).

        With ``refine_head`` the head is copied down to horizon ``t + 1``
        and fed the alive edges it never processed, restoring the full
        ``(1/2 - eps)`` guarantee of BASICREDUCTION at extra cost.
        """
        t = self.graph.time
        self._expire(t)
        if not self._horizons:
            return Solution.empty(self._last_time)
        head_horizon = self._horizons[0]
        head = self._instances[head_horizon]
        if self.refine_head and head_horizon > t + 1:
            refined = head.copy(min_expiry=t + 1)
            self._fill(t, refined, t + 1, head_horizon)
            head = refined
        solution = head.query()
        return Solution(
            nodes=solution.nodes, value=solution.value, time=self._last_time
        )

    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Live instances; O(log(k)/eps) after redundancy removal."""
        return len(self._horizons)

    def horizons(self) -> List[Horizon]:
        """Current histogram indices as absolute horizons (ascending)."""
        return list(self._horizons)

    def indices(self) -> List[float]:
        """Current histogram as the paper's relative indices ``x_t``."""
        t = self.graph.time
        return [h - t for h in self._horizons]

    def histogram(self, *, exact: bool = False) -> List[tuple]:
        """The maintained histogram ``{(x_i, g_t(x_i))}`` of paper Fig. 5.

        Returns ``(relative_index, value)`` pairs in ascending index order.
        With ``exact=False`` (default) values are the instances' cached
        readouts (free); ``exact=True`` re-evaluates each instance's output
        at the current time (costs oracle calls).  Useful for inspecting
        how aggressively the redundancy removal has compressed the ``L``
        potential instances.
        """
        t = self.graph.time
        pairs = []
        for horizon in self._horizons:
            instance = self._instances[horizon]
            value = (
                instance.query_value() if exact else instance.query_value_cached()
            )
            pairs.append((horizon - t, value))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistApprox(k={self.k}, epsilon={self.epsilon}, "
            f"instances={len(self._horizons)})"
        )
