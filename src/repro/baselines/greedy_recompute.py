"""The Greedy baseline: lazy greedy re-run from scratch at every query.

This is the paper's reference method ("we run a greedy algorithm on G_t
which chooses a node with the maximum marginal gain in each round, and
repeats k rounds", with Minoux's lazy-evaluation trick).  It yields the
best solution quality of all compared methods — a ``(1 - 1/e)``
approximation — at a per-query cost of at least one oracle call per alive
node (the initial singleton pass), which is exactly why the streaming
algorithms beat it on efficiency in Figs. 10, 11 and 14.

"From scratch" covers the oracle's memo too: every query starts by
invalidating it, so no evaluation is served from an entry an earlier
query left behind, and each query costs what it would on a fresh
oracle.  That holds for an oracle passed in (as
:class:`~repro.core.tracker.InfluenceTracker` does) as well as for the
one built here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.tracker import Solution
from repro.errors import check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.submodular.functions import SpreadFunction
from repro.submodular.greedy import lazy_greedy_max
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class GreedyRecompute:
    """Re-run lazy (CELF) greedy on the current alive graph per query."""

    label = "Greedy"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.graph = graph
        self.oracle = oracle if oracle is not None else InfluenceOracle(graph)
        self._last_time = 0

    def on_batch(self, t: int, batch: Sequence[Interaction]) -> None:
        """Greedy keeps no incremental state; recomputation happens in query."""
        self._last_time = t

    def query(self) -> Solution:
        """Lazy greedy over every alive node, from scratch."""
        self.oracle.invalidate()
        candidates = sorted(self.graph.node_set(), key=repr)
        if not candidates:
            return Solution.empty(self._last_time)
        function = SpreadFunction(self.oracle)
        result = lazy_greedy_max(function, candidates, self.k)
        return Solution(
            nodes=tuple(result.nodes), value=float(result.value), time=self._last_time
        )
