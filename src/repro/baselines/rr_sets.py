"""Reverse-reachable (RR) set machinery (Borgs et al. [2]).

All three index-based baselines the paper compares against — IMM, TIM+ and
DIM — reduce influence maximization under the independent-cascade model to
max-coverage over sampled RR sets.  An RR set is generated by picking a
uniformly random *root* node and walking the graph's edges *backwards*, each
edge ``(u, v)`` being traversable with probability ``p_uv``: the resulting
node set is exactly the set of nodes that would have activated the root in a
forward cascade.  The fundamental identity is

    E[spread(S)] = n * Pr[S intersects a random RR set]

so coverage over a large enough sample estimates spread, and greedy
max-coverage picks near-optimal seeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import check_positive_int
from repro.influence.probabilities import WeightedGraphSnapshot
from repro.submodular.functions import CoverageFunction
from repro.utils.rng import SeedLike, make_rng


def sample_rr_set(
    snapshot: WeightedGraphSnapshot,
    rng,
    root: Optional[int] = None,
) -> Set[int]:
    """Sample one RR set (as dense node indices) from the snapshot.

    Args:
        snapshot: frozen weighted graph.
        rng: a ``random.Random``.
        root: fix the root index (random when ``None``).

    Returns:
        The set of node indices that reach the root under one random
        realization of the edges; always contains the root.
    """
    n = snapshot.num_nodes
    if n == 0:
        return set()
    if root is None:
        root = rng.randrange(n)
    visited: Set[int] = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for in_neighbor, probability in snapshot.in_adj[node]:
            if in_neighbor not in visited and rng.random() < probability:
                visited.add(in_neighbor)
                frontier.append(in_neighbor)
    return visited


class RRCollection:
    """A sample of RR sets plus seed selection and spread estimation.

    Used directly by IMM and TIM+ (static resample per query) and as the
    underlying pool of the DIM-style dynamic index (incrementally
    maintained).
    """

    def __init__(self, snapshot: WeightedGraphSnapshot) -> None:
        self.snapshot = snapshot
        self.sets: List[Set[int]] = []
        self.roots: List[int] = []

    def sample(self, count: int, rng: SeedLike = None) -> None:
        """Append ``count`` freshly sampled RR sets."""
        rand = make_rng(rng)
        n = self.snapshot.num_nodes
        if n == 0:
            return
        for _ in range(count):
            root = rand.randrange(n)
            self.roots.append(root)
            self.sets.append(sample_rr_set(self.snapshot, rand, root))

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def total_size(self) -> int:
        """Total node memberships across all RR sets (the index 'weight')."""
        return sum(len(s) for s in self.sets)

    # ------------------------------------------------------------------
    def select_seeds(self, k: int) -> Tuple[List, float]:
        """Greedy max-coverage seed selection.

        Returns ``(seed_labels, estimated_spread)`` where the estimate is
        ``n * covered_fraction`` of the chosen seeds.
        """
        check_positive_int(k, "k")
        if not self.sets:
            return [], 0.0
        coverage = CoverageFunction(self.sets)
        chosen_indices = coverage.greedy_cover(k)
        covered = coverage.value(chosen_indices)
        estimate = self.snapshot.num_nodes * covered / len(self.sets)
        return self.snapshot.to_labels(chosen_indices), estimate

    def estimate_spread(self, seeds: Sequence) -> float:
        """``n * fraction of RR sets hit`` for labeled seed nodes."""
        if not self.sets:
            return 0.0
        seed_indices = {
            self.snapshot.index[s] for s in seeds if s in self.snapshot.index
        }
        hit = sum(1 for rr in self.sets if rr & seed_indices)
        return self.snapshot.num_nodes * hit / len(self.sets)

    def coverage_fraction(self, seeds: Sequence) -> float:
        """Fraction of RR sets intersected by labeled seeds."""
        if not self.sets:
            return 0.0
        seed_indices = {
            self.snapshot.index[s] for s in seeds if s in self.snapshot.index
        }
        hit = sum(1 for rr in self.sets if rr & seed_indices)
        return hit / len(self.sets)
