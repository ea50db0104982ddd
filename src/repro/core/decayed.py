"""Semantics-driven trackers: decayed centrality and trend detection.

The fold seam (:mod:`repro.kernels.folds`) makes influence a pluggable
monoid over the reached set; these two trackers are its first non-count
consumers.  Both rank alive nodes by their *singleton* spread under a
decaying semantics and answer queries with the top-``k`` — the natural
streaming analogue of centrality scoring, where the paper's sieve
machinery is unnecessary because singletons need no submodular bookkeeping.

* :class:`DecayedCentralityTracker` scores a node by its hop-discounted
  reach ``sum_v alpha^dist(u, v)`` (``hop_discount`` semantics): nearby
  reachable nodes count almost fully, distant ones geometrically less.
  This is Katz-style centrality restricted to the alive time-decaying
  graph.
* :class:`TrendTracker` scores a node by recency-weighted reach
  ``sum_v (1 - exp(-lam * remaining_lifetime(v)))`` (``time_decay``
  semantics): nodes whose audience is backed by fresh, long-lived
  interactions outrank nodes coasting on expiring ones — a trending-now
  detector.

Both delegate every evaluation to a shared :class:`InfluenceOracle`
constructed with the matching ``semantics=...``, so memoization,
invalidation, sharded execution and persistence all come for free and
behave identically to the count path.  Correctness is pinned against
independent dict-BFS references in ``tests/property/test_fold_semantics.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.tracker import Solution
from repro.errors import SemanticsError, check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class _SingletonRankTracker:
    """Shared machinery: rank alive nodes by singleton spread, keep top-k.

    Subclasses pin ``semantics_name``; the constructor enforces that the
    supplied oracle evaluates under exactly that fold family, so a tracker
    can never silently rank under the wrong arithmetic (e.g. a trend
    tracker fed a plain count oracle).
    """

    #: Fold family the oracle must evaluate under (subclass responsibility).
    semantics_name = ""
    label = ""

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: InfluenceOracle,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.graph = graph
        if oracle.semantics != self.semantics_name:
            raise SemanticsError(
                f"{type(self).__name__} requires an oracle with "
                f"semantics {self.semantics_name!r}, got {oracle.semantics!r}"
            )
        self.oracle = oracle
        self._last_time = 0

    def on_batch(self, t: int, batch: Sequence[Interaction]) -> None:
        """Singleton ranking keeps no incremental state; scoring happens in
        :meth:`query` where the oracle's memo table absorbs repeats."""
        self._last_time = t

    def query(self) -> Solution:
        """Top-``k`` alive nodes by singleton spread under the tracker's fold.

        Candidates are scored in one batched oracle call (one bit-plane
        sweep per 64 singletons); ties break deterministically by node
        repr so runs are reproducible across processes.  ``value`` is the
        fold spread of the selected *set* — the same quantity the sieve
        trackers report — not the sum of singleton scores.
        """
        candidates = sorted(self.graph.node_set(), key=repr)
        if not candidates:
            return Solution.empty(self._last_time)
        scores = self.oracle.spread_many([(node,) for node in candidates])
        ranked = sorted(
            zip(candidates, scores), key=lambda pair: (-pair[1], repr(pair[0]))
        )
        selected: Tuple = tuple(node for node, _ in ranked[: self.k])
        value = float(self.oracle.spread(selected))
        return Solution(nodes=selected, value=value, time=self._last_time)

    def singleton_scores(self) -> List[Tuple[object, float]]:
        """Every alive node with its singleton score, best first.

        Exposed for analysis/report code that wants the full ranking
        rather than the top-``k`` cut.
        """
        candidates = sorted(self.graph.node_set(), key=repr)
        scores = self.oracle.spread_many([(node,) for node in candidates])
        return sorted(
            zip(candidates, scores), key=lambda pair: (-pair[1], repr(pair[0]))
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, oracle={self.oracle!r})"


class DecayedCentralityTracker(_SingletonRankTracker):
    """Track the top-``k`` nodes by hop-discounted reach (Katz-style).

    Requires an oracle constructed with ``semantics="hop_discount"`` (or a
    parameterized ``("hop_discount", {"alpha": ...})`` spec); ``alpha``
    lives on the oracle's fold so every consumer of the oracle agrees on
    the discount.
    """

    semantics_name = "hop_discount"
    label = "DecayedCentrality"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        alpha: float = 0.5,
    ) -> None:
        if oracle is None:
            oracle = InfluenceOracle(
                graph, semantics=("hop_discount", {"alpha": alpha})
            )
        super().__init__(k, graph, oracle)

    @property
    def alpha(self) -> float:
        """Per-hop geometric discount, owned by the oracle's fold."""
        return self.oracle.fold.params["alpha"]


class TrendTracker(_SingletonRankTracker):
    """Track the top-``k`` nodes by recency-weighted (time-decay) reach.

    Requires an oracle constructed with ``semantics="time_decay"`` (or a
    parameterized ``("time_decay", {"lam": ...})`` spec); larger ``lam``
    concentrates mass on nodes backed by long-remaining-lifetime
    interactions.
    """

    semantics_name = "time_decay"
    label = "Trend"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        lam: float = 0.1,
    ) -> None:
        if oracle is None:
            oracle = InfluenceOracle(graph, semantics=("time_decay", {"lam": lam}))
        super().__init__(k, graph, oracle)

    @property
    def lam(self) -> float:
        """Exponential decay rate, owned by the oracle's fold."""
        return self.oracle.fold.params["lam"]
