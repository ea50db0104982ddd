"""Interchange greedy (Song et al., TKDE 2017) — extension baseline.

The interchange approach warm-starts from the previous solution instead of
rebuilding from the empty set: while some non-solution node improves the
objective by at least a ``(1 + gamma)`` factor when swapped against the
weakest solution member, perform the swap.  For monotone submodular
objectives the fixed point is a ``(1/2 - eps)``-approximation.  The paper's
criticism — which the ablation bench `bench_ablation_interchange`
quantifies — is that on *highly* dynamic networks the previous solution
stops being a useful warm start and the method degrades toward full
recomputation.

Cost per query: incremental.  A query warm-starts from the previous
solution, and its evaluations go through the oracle's memo, which keeps
every entry no delta since has touched (the memo is never invalidated
here).  A query on an unchanged graph costs no oracle call; after a
batch, only the sets whose reachable cone the batch touched are
evaluated again.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.tracker import Solution
from repro.errors import check_fraction, check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class InterchangeGreedy:
    """Swap-based maintenance of a size-``k`` seed set across time.

    Args:
        k: seed budget.
        graph: shared TDN.
        oracle: counted oracle.
        gamma: minimum relative improvement a swap must deliver
            (``f(S') >= (1 + gamma) f(S)``); the approximation knob.
        max_passes: safety bound on full swap sweeps per query.
    """

    label = "Interchange"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        gamma: float = 0.05,
        max_passes: int = 10,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.graph = graph
        self.oracle = oracle if oracle is not None else InfluenceOracle(graph)
        self.gamma = check_fraction(gamma, "gamma")
        self.max_passes = check_positive_int(max_passes, "max_passes")
        self._solution: List = []
        self._last_time = 0

    # ------------------------------------------------------------------
    def on_batch(self, t: int, batch: Sequence[Interaction]) -> None:
        """Only the clock moves; repair happens lazily at query time."""
        self._last_time = t

    def query(self) -> Solution:
        candidates = sorted(self.graph.node_set(), key=repr)
        if not candidates:
            self._solution = []
            return Solution.empty(self._last_time)
        self._repair_solution(candidates)
        self._improve_by_swaps(candidates)
        value = self.oracle.spread(self._solution) if self._solution else 0.0
        return Solution(
            nodes=tuple(self._solution), value=float(value), time=self._last_time
        )

    # ------------------------------------------------------------------
    def _repair_solution(self, candidates: List) -> None:
        """Drop dead members; refill greedily to size ``k``."""
        alive = set(candidates)
        self._solution = [node for node in self._solution if node in alive]
        while len(self._solution) < min(self.k, len(candidates)):
            base_value = self.oracle.spread(self._solution) if self._solution else 0.0
            best_node, best_value = None, base_value
            in_solution = set(self._solution)
            for node in candidates:
                if node in in_solution:
                    continue
                trial = self.oracle.spread(self._solution + [node])
                if trial > best_value:
                    best_value = trial
                    best_node = node
            if best_node is None:
                break
            self._solution.append(best_node)

    def _improve_by_swaps(self, candidates: List) -> None:
        """Swap sweeps until no ``(1 + gamma)``-improving exchange exists."""
        for _ in range(self.max_passes):
            improved = False
            current_value = (
                self.oracle.spread(self._solution) if self._solution else 0.0
            )
            for position in range(len(self._solution)):
                without = self._solution[:position] + self._solution[position + 1 :]
                in_solution = set(self._solution)
                for node in candidates:
                    if node in in_solution:
                        continue
                    trial = self.oracle.spread(without + [node])
                    if (
                        trial >= (1.0 + self.gamma) * current_value
                        and trial > current_value
                    ):
                        self._solution = without + [node]
                        current_value = trial
                        improved = True
                        in_solution = set(self._solution)
                        break
            if not improved:
                break
