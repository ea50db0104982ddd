"""IMM: martingale-based influence maximization (Tang, Shi, Xiao, 2015).

IMM is a static-graph RR-set method: it estimates a lower bound ``LB`` on
the optimal spread with a geometric search (the martingale sampling phase),
derives from it the number ``theta`` of RR sets that guarantees an
``(1 - 1/e - eps)`` approximation with high probability, then greedily picks
seeds by max coverage.  The paper runs IMM per query on a snapshot of the
evolving influence graph with ``eps = 0.3`` — it produces near-greedy
quality (Fig. 13) but pays a full re-index per query, giving it the lowest
throughput (Fig. 14).

This reproduction keeps IMM's two-phase structure and formulas but caps the
sample count (``max_rr_sets``) so that pure-Python runs stay tractable; the
cap is recorded on the instance so experiments can report when it bound.

Cost per query: from scratch.  Every query snapshots the graph and
samples a new RR-set index; nothing but the RNG carries over.  Its oracle
cost is the one call that reports the chosen seeds' true spread, a memo
hit when the graph has not touched that set's cone since it was last
scored.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.baselines.rr_sets import RRCollection
from repro.core.tracker import Solution
from repro.errors import check_fraction, check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.influence.probabilities import WeightedGraphSnapshot
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.utils.rng import SeedLike, make_rng


def log_binomial(n: int, k: int) -> float:
    """``log C(n, k)`` via lgamma; 0 for degenerate arguments."""
    if k < 0 or k > n or n <= 0:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


class IMM:
    """IMM re-run per query on the current weighted snapshot.

    Args:
        k: seed budget.
        graph: shared TDN (snapshot taken at query time).
        oracle: counted oracle used to report the *reachability* value of
            the selected seeds so that cross-method curves are comparable.
        epsilon: IMM's accuracy parameter (paper uses 0.3).
        seed: RNG seed.
        max_rr_sets: hard cap on the number of sampled RR sets per query.
    """

    label = "IMM"

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
        #: True when the last query hit the RR-set cap (tractability guard).
        self.capped_last_query = False

    # ------------------------------------------------------------------
    def on_batch(self, t: int, batch: Sequence[Interaction]) -> None:
        """IMM is static: nothing is maintained between queries."""
        self._last_time = t

    def query(self) -> Solution:
        """Snapshot, sample, select — the full IMM pipeline."""
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
        collection, lower_bound = self._sampling_phase(snapshot, k)
        theta = self._theta_from_bound(n, k, lower_bound)
        self.capped_last_query = theta > self.max_rr_sets
        theta = min(theta, self.max_rr_sets)
        if len(collection) < theta:
            collection.sample(theta - len(collection), self._rng)
        seeds, _ = collection.select_seeds(k)
        return seeds

    def _sampling_phase(
        self, snapshot: WeightedGraphSnapshot, k: int
    ) -> Tuple[RRCollection, float]:
        """IMM Alg. 2: geometric search for a spread lower bound ``LB``."""
        n = snapshot.num_nodes
        collection = RRCollection(snapshot)
        if n <= 1:
            collection.sample(1, self._rng)
            return collection, 1.0
        eps_prime = math.sqrt(2.0) * self.epsilon
        log_terms = log_binomial(n, k) + math.log(n) + math.log(max(math.log2(n), 1.0))
        lambda_prime = (
            (2.0 + 2.0 / 3.0 * eps_prime) * log_terms * n / (eps_prime**2)
        )
        lower_bound = 1.0
        max_rounds = max(int(math.ceil(math.log2(n))) - 1, 1)
        for i in range(1, max_rounds + 1):
            x = n / (2.0**i)
            theta_i = min(int(math.ceil(lambda_prime / x)), self.max_rr_sets)
            if len(collection) < theta_i:
                collection.sample(theta_i - len(collection), self._rng)
            seeds, estimate = collection.select_seeds(k)
            if estimate >= (1.0 + eps_prime) * x:
                lower_bound = estimate / (1.0 + eps_prime)
                break
            if theta_i >= self.max_rr_sets:
                lower_bound = max(estimate, 1.0)
                break
        else:
            lower_bound = max(collection.select_seeds(k)[1], 1.0)
        return collection, lower_bound

    def _theta_from_bound(self, n: int, k: int, lower_bound: float) -> int:
        """IMM's theta = 2n * ((1-1/e) alpha + beta)^2 / (LB * eps^2)."""
        alpha = math.sqrt(math.log(n) + math.log(2.0))
        beta = math.sqrt(
            (1.0 - 1.0 / math.e) * (log_binomial(n, k) + math.log(n) + math.log(2.0))
        )
        numerator = 2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2
        return int(math.ceil(numerator / (max(lower_bound, 1.0) * self.epsilon**2)))
