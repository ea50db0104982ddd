"""DIM-style dynamically maintained RR-set index (Ohsaka et al., 2016).

DIM keeps a pool of RR sketches alive across graph updates instead of
resampling from scratch per query.  Its two invariants are (i) every sketch
is distributed like a fresh RR set of the *current* graph, and (ii) the pool
is large enough for reliable estimation (DIM grows the pool until its total
weight reaches ``beta * (n + m)``, with ``beta = 32`` in the paper).

This reproduction maintains invariant (i) with *conservative regeneration*:
whenever the probability of a directed pair ``(u, v)`` changes (new
interactions arrived, or alive interactions expired), every sketch
containing ``v`` is resampled from a fresh random root, as is every sketch
whose root died.  An edge's expiry step is known when it arrives (the TDN
removes it at ``tau + l`` and no other way), so the index schedules the
pairs it saw arrive by expiry step and marks them dirty when
:meth:`DIMIndex.on_batch` reaches that step.  Sketches never grow
incrementally as in the original C++ implementation, so updates here are
strictly more expensive, but the sampled distribution is exact — quality
behaviour (the paper's Fig. 13 instability on fast-churning workloads comes
from estimation variance of the shared pool, which is preserved) and the
relative throughput ordering (faster than re-indexing IMM/TIM+, slower than
HISTAPPROX, Fig. 14) both survive.

Cost per query: incremental.  The sketch pool is maintained between
queries (:meth:`DIMIndex.on_batch` absorbs arrivals and expiries), and a query
only runs greedy max-coverage over it.  Its oracle cost is the one call
that reports the chosen seeds' true spread, a memo hit when no delta
since the last query touched that set's cone.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.tracker import Solution
from repro.errors import check_positive, check_positive_int
from repro.influence.oracle import InfluenceOracle
from repro.influence.probabilities import interactions_to_probability
from repro.submodular.functions import CoverageFunction
from repro.tdn.batch import EdgeBatch, as_edge_batch
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.utils.rng import SeedLike, make_rng


class DIMIndex:
    """Dynamic RR-set index over the evolving TDN.

    Args:
        k: seed budget.
        graph: shared TDN; the edges alive when the index is built enter
            its view at the first :meth:`on_batch` and expire like the
            ones it later sees.
        oracle: counted oracle for reporting comparable spread values.
        beta: pool-sizing parameter (paper suggests 32).
        seed: RNG seed.
        max_sketches: hard cap on the pool (tractability guard).
    """

    label = "DIM"

    def __init__(
        self,
        k: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        beta: float = 32.0,
        seed: SeedLike = None,
        max_sketches: int = 4_000,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.graph = graph
        self.oracle = oracle if oracle is not None else InfluenceOracle(graph)
        self.beta = check_positive(beta, "beta")
        self.max_sketches = check_positive_int(max_sketches, "max_sketches")
        self._rng = make_rng(seed)
        self._last_time = 0
        # Probability view maintained incrementally: v -> {u: p_uv}.
        self._in_prob: Dict = {}
        # Sketch pool: parallel lists of node-label sets and their roots.
        self._sketches: List[Set] = []
        self._roots: List = []
        # Membership index: node label -> sketch ids containing it.
        self._member_index: Dict = {}
        # Pairs whose alive multiplicity changed since last maintenance,
        # in the order the changes happened (a dict keeps it); the pairs
        # already alive enter the view on the first batch.
        self._dirty_pairs: Dict[Tuple, None] = dict.fromkeys(graph.alive_pairs())
        # Expiry schedule: step -> pairs with an edge expiring then, one
        # entry per edge in arrival order; the heap holds the steps.
        self._expiring: Dict[int, List[Tuple]] = {}
        self._expiry_steps: List[int] = []
        for u, v, step in graph.edges_with_expiry_in(graph.time + 1, math.inf):
            self._schedule((u, v), step)

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def _schedule(self, pair: Tuple, step: int) -> None:
        pairs = self._expiring.get(step)
        if pairs is None:
            self._expiring[step] = [pair]
            heapq.heappush(self._expiry_steps, step)
        else:
            pairs.append(pair)

    def on_batch(
        self, t: int, batch: Union[EdgeBatch, Iterable[Interaction]]
    ) -> None:
        """Absorb expiries due by ``t`` and the batch's arrivals, in that
        order; repair affected sketches."""
        self._last_time = t
        dirty = self._dirty_pairs
        steps = self._expiry_steps
        while steps and steps[0] <= t:
            for pair in self._expiring.pop(heapq.heappop(steps)):
                dirty[pair] = None
        batch = as_edge_batch(t, batch)
        for pair, expiry in zip(zip(batch.sources, batch.targets), batch.expiries):
            dirty[pair] = None
            if expiry != math.inf:
                self._schedule(pair, int(expiry))
        if not dirty:
            self._resize_pool()
            return
        affected_targets = set()
        for u, v in dirty:
            probability = interactions_to_probability(
                self.graph.interaction_count(u, v)
            )
            if probability > 0.0:
                self._in_prob.setdefault(v, {})[u] = probability
            else:
                bucket = self._in_prob.get(v)
                if bucket is not None:
                    bucket.pop(u, None)
                    if not bucket:
                        del self._in_prob[v]
            affected_targets.add(v)
        dirty.clear()
        self._regenerate_affected(affected_targets)
        self._resize_pool()

    def _regenerate_affected(self, targets: Set) -> None:
        """Resample every sketch containing an affected target or a dead root."""
        stale: Set[int] = set()
        for target in targets:
            stale.update(self._member_index.get(target, ()))
        for sketch_id, root in enumerate(self._roots):
            if not self.graph.has_node(root):
                stale.add(sketch_id)
        if not stale:
            return
        alive = self._alive_nodes()
        if not alive:
            # Nothing left to root a sketch at; the pool resets entirely.
            self._sketches.clear()
            self._roots.clear()
            self._member_index.clear()
            return
        for sketch_id in sorted(stale):
            self._replace_sketch(sketch_id, alive)

    def _resize_pool(self) -> None:
        """Grow (or shrink) the pool toward total weight ``beta * (n + m)``.

        DIM's sizing rule; ``n + m`` uses distinct alive pairs for ``m``.
        The cap keeps worst cases tractable in pure Python.
        """
        alive = self._alive_nodes()
        if not alive:
            self._sketches.clear()
            self._roots.clear()
            self._member_index.clear()
            return
        target_weight = self.beta * (len(alive) + self.graph.num_pairs)
        current_weight = sum(len(s) for s in self._sketches)
        while (
            current_weight < target_weight
            and len(self._sketches) < self.max_sketches
        ):
            sketch, root = self._sample_sketch(alive)
            sketch_id = len(self._sketches)
            self._sketches.append(sketch)
            self._roots.append(root)
            for node in sketch:
                self._member_index.setdefault(node, set()).add(sketch_id)
            current_weight += len(sketch)
        while current_weight > 2.0 * target_weight and len(self._sketches) > 1:
            current_weight -= self._drop_last_sketch()

    # ------------------------------------------------------------------
    # Sketch sampling
    # ------------------------------------------------------------------
    def _alive_nodes(self) -> List:
        return sorted(self.graph.node_set(), key=repr)

    def _sample_sketch(self, alive: List):
        root = alive[self._rng.randrange(len(alive))]
        visited = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            # Order-safe: ``_in_prob[node]`` is a dict filled in the order
            # ``on_batch`` walks its dirty pairs (expiry step, then
            # arrival, then the batch), so the draws follow one order in
            # every process.
            # repro-lint: disable-next=RPL401
            for in_neighbor, probability in self._in_prob.get(node, {}).items():
                if in_neighbor not in visited and self._rng.random() < probability:
                    visited.add(in_neighbor)
                    frontier.append(in_neighbor)
        return visited, root

    def _replace_sketch(self, sketch_id: int, alive: List) -> None:
        for node in self._sketches[sketch_id]:
            members = self._member_index.get(node)
            if members is not None:
                members.discard(sketch_id)
                if not members:
                    del self._member_index[node]
        sketch, root = self._sample_sketch(alive)
        self._sketches[sketch_id] = sketch
        self._roots[sketch_id] = root
        for node in sketch:
            self._member_index.setdefault(node, set()).add(sketch_id)

    def _drop_last_sketch(self) -> int:
        sketch_id = len(self._sketches) - 1
        sketch = self._sketches.pop()
        self._roots.pop()
        for node in sketch:
            members = self._member_index.get(node)
            if members is not None:
                members.discard(sketch_id)
                if not members:
                    del self._member_index[node]
        return len(sketch)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def query(self) -> Solution:
        """Greedy max-coverage over the live sketch pool."""
        if not self._sketches:
            return Solution.empty(self._last_time)
        coverage = CoverageFunction(self._sketches)
        seeds = coverage.greedy_cover(self.k)
        if not seeds:
            return Solution.empty(self._last_time)
        value = self.oracle.spread(seeds)
        return Solution(nodes=tuple(seeds), value=float(value), time=self._last_time)

    @property
    def num_sketches(self) -> int:
        """Current pool size (diagnostics)."""
        return len(self._sketches)

    def estimated_spread(self, seeds: Sequence) -> float:
        """DIM's own estimate: ``n * fraction of sketches hit``."""
        if not self._sketches:
            return 0.0
        seed_set = set(seeds)
        hit = sum(1 for sketch in self._sketches if sketch & seed_set)
        return self.graph.num_nodes * hit / len(self._sketches)
