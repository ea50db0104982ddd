"""The Random baseline: ``k`` uniformly random alive nodes per query.

The paper uses Random as the quality floor in Fig. 8 — any method worth its
salt must clearly beat it.  The pick is redrawn at every query ("we randomly
pick a set of k nodes from G_t at each time t"), and the reported value is
the true influence spread of the drawn set.

Cost per query: from scratch.  Every query redraws its set; no state
carries over but the RNG.  Its oracle cost is the one call that scores
the drawn set, a memo hit when the same set was already scored and no
delta since has touched its cone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.tracker import Solution
from repro.errors import check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.utils.rng import SeedLike, make_rng


class RandomBaseline:
    """Uniformly random seed sets over the alive node set ``V_t``."""

    label = "Random"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.graph = graph
        self.oracle = oracle if oracle is not None else InfluenceOracle(graph)
        self._rng = make_rng(seed)
        self._last_time = 0

    def on_batch(self, t: int, batch: Sequence[Interaction]) -> None:
        """Random keeps no state; only the clock is remembered."""
        self._last_time = t

    def query(self) -> Solution:
        """Draw ``k`` alive nodes uniformly; report their true spread."""
        nodes: List = sorted(self.graph.node_set(), key=repr)
        if not nodes:
            return Solution.empty(self._last_time)
        chosen = self._rng.sample(nodes, min(self.k, len(nodes)))
        value = self.oracle.spread(chosen)
        return Solution(nodes=tuple(chosen), value=float(value), time=self._last_time)
