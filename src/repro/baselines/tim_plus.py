"""TIM+: two-phase influence maximization (Tang, Xiao, Shi, 2014).

TIM+ preceded IMM: phase one estimates ``KPT`` — the expected spread of a
random size-``k`` seed set — by measuring the *width* of sampled RR sets
(the number of in-edges touching the set), and phase two samples
``theta = lambda / KPT`` RR sets and greedily covers them.  Like IMM it is a
static-graph method that must re-index per query; the paper shows it
matching greedy's quality (Fig. 13) at the lowest throughput tier together
with IMM (Fig. 14).

The reproduction keeps the two-phase structure, the ``kappa(R) = 1 - (1 -
w(R)/m)^k`` width statistic, and the geometric search schedule, with a
sample cap for pure-Python tractability.

Cost per query: from scratch, as for IMM.  Every query snapshots the
graph, re-estimates ``KPT`` and samples a new RR-set index.  Its oracle
cost is the one call that reports the chosen seeds' true spread, a memo
hit when the graph has not touched that set's cone since it was last
scored.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.baselines.imm import log_binomial
from repro.baselines.rr_sets import RRCollection, sample_rr_set
from repro.core.tracker import Solution
from repro.errors import check_fraction, check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.influence.probabilities import WeightedGraphSnapshot
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.utils.rng import SeedLike, make_rng


class TIMPlus:
    """TIM+ re-run per query on the current weighted snapshot.

    Args:
        k: seed budget.
        graph: shared TDN.
        oracle: counted oracle for reporting comparable spread values.
        epsilon: accuracy parameter (paper uses 0.3).
        seed: RNG seed.
        max_rr_sets: cap on sampled RR sets per query.
    """

    label = "TIM+"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        epsilon: float = 0.3,
        seed: SeedLike = None,
        max_rr_sets: int = 20_000,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.graph = graph
        self.oracle = oracle if oracle is not None else InfluenceOracle(graph)
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.max_rr_sets = check_positive_int(max_rr_sets, "max_rr_sets")
        self._rng = make_rng(seed)
        self._last_time = 0
        self.capped_last_query = False

    # ------------------------------------------------------------------
    def on_batch(self, t: int, batch: Sequence[Interaction]) -> None:
        """TIM+ is static: nothing is maintained between queries."""
        self._last_time = t

    def query(self) -> Solution:
        snapshot = WeightedGraphSnapshot(self.graph)
        if snapshot.num_nodes == 0:
            return Solution.empty(self._last_time)
        seeds = self._run(snapshot)
        if not seeds:
            return Solution.empty(self._last_time)
        value = self.oracle.spread(seeds)
        return Solution(nodes=tuple(seeds), value=float(value), time=self._last_time)

    # ------------------------------------------------------------------
    def _run(self, snapshot: WeightedGraphSnapshot) -> List:
        n = snapshot.num_nodes
        k = min(self.k, n)
        kpt = self._estimate_kpt(snapshot, k)
        lam = (
            (8.0 + 2.0 * self.epsilon)
            * n
            * (math.log(n) + log_binomial(n, k) + math.log(2.0))
            / (self.epsilon**2)
        )
        theta = int(math.ceil(lam / max(kpt, 1.0)))
        self.capped_last_query = theta > self.max_rr_sets
        theta = min(theta, self.max_rr_sets)
        collection = RRCollection(snapshot)
        collection.sample(theta, self._rng)
        seeds, _ = collection.select_seeds(k)
        return seeds

    def _estimate_kpt(self, snapshot: WeightedGraphSnapshot, k: int) -> float:
        """TIM's Alg. 2 (KptEstimation) with a sample cap.

        ``kappa(R) = 1 - (1 - w(R)/m)^k`` where ``w(R)`` counts in-edges
        incident to the RR set; ``E[kappa]`` relates to the mean spread of a
        random size-``k`` seed set, giving the stopping rule below.
        """
        n = snapshot.num_nodes
        m = max(snapshot.num_edges, 1)
        if n <= 1:
            return 1.0
        log_n = math.log(n)
        rounds = max(int(math.log2(n)) - 1, 1)
        sampled = 0
        for i in range(1, rounds + 1):
            count = int(math.ceil((6.0 * log_n + 6.0 * math.log(rounds)) * (2.0**i)))
            count = min(count, self.max_rr_sets - sampled)
            if count <= 0:
                break
            kappa_sum = 0.0
            for _ in range(count):
                rr = sample_rr_set(snapshot, self._rng)
                width = sum(len(snapshot.in_adj[node]) for node in rr)
                kappa_sum += 1.0 - (1.0 - width / m) ** k
            sampled += count
            if kappa_sum / count > 1.0 / (2.0**i):
                return n * kappa_sum / (2.0 * count)
        return 1.0
