"""BASICREDUCTION: SIEVEADN as a building block for general TDNs (Alg. 2).

The reduction maintains ``L`` staggered SIEVEADN instances.  Instance ``i``
at time ``t`` processes the arriving edges with lifetime at least ``i``, so
by construction it has processed exactly the edges still alive at
``t + i - 1`` — the head instance (``i = 1``) has processed *all* alive
edges and its output is a ``(1/2 - eps)``-approximate solution on ``G_t``
(Theorem 4).  After each step the head expires, the remaining instances
shift left, and a fresh instance joins at the tail.

This implementation keys instances by their absolute *horizon* ``h = t + i``
(see "Horizon filtering" in :mod:`repro.tdn.graph`): shifting becomes a
no-op, termination is ``h <= t``, and the instance's evaluation subgraph
is "edges with expiry at or above ``h``" on the one shared graph.  The
instance deque is therefore in one-to-one correspondence with Alg. 2's
array, without any renaming.

Instance ``h`` is fed the batch edges with expiry at or above ``h``, so
the instances differ only in their horizon.  Their changed-node sets come
from one reverse sweep per batch: each source is labelled with its latest
batch expiry, each ancestor with the widest horizon at which it reaches
such a source (:func:`~repro.influence.changed.changed_node_labels`), and
each instance takes the candidates labelled at or above its horizon.

Cost note (paper Theorem 5 and remarks): edges with large lifetimes fan out
to many instances; the per-batch work is ``O(L b gamma log(k) / eps)`` in
the worst case.  This is the bottleneck HISTAPPROX removes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple, Union

from repro.core.sieve_adn import SieveADN
from repro.core.tracker import Solution, check_horizon_oracle, check_lifetime_bound
from repro.errors import check_fraction, check_positive_int
from repro.influence.changed import (
    candidates_at,
    changed_node_labels,
    check_changed_mode,
    latest_expiry_by_source,
)
from repro.influence.oracle import InfluenceOracle
from repro.tdn.batch import EdgeBatch, as_edge_batch
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction


class BasicReduction:
    """The paper's Alg. 2, horizon-keyed.

    Args:
        k: cardinality budget.
        epsilon: sieve grid resolution.
        L: maximum lifetime; every arriving edge must have at most ``L``
            steps left at its batch time (the TDN model's upper bound).
        graph: shared TDN.
        oracle: counted oracle (private one created when omitted).
        changed_mode: changed-node derivation mode for the instances.
    """

    label = "BasicReduction"

    def __init__(
        self,
        k: int,
        epsilon: float,
        L: int,
        graph: TDNGraph,
        oracle: Optional[InfluenceOracle] = None,
        *,
        changed_mode: str = "ancestors",
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.L = check_positive_int(L, "L")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.graph = graph
        self.oracle = check_horizon_oracle(
            oracle if oracle is not None else InfluenceOracle(graph), "BasicReduction"
        )
        self.changed_mode = check_changed_mode(changed_mode)
        # Deque of (horizon, instance), ascending horizon; contiguous range
        # [t + 1, t + L] after _ensure_instances(t).
        self._instances: Deque[Tuple[int, SieveADN]] = deque()
        self._last_time = 0

    # ------------------------------------------------------------------
    def _ensure_instances(self, t: int) -> None:
        """Expire instances with horizon <= t; extend the tail to ``t + L``.

        Equivalent to Alg. 2's terminate/shift/append, executed lazily at the
        start of each step (multiple steps may have elapsed without batches).
        A brand-new horizon ``h > previous t + L`` cannot have missed edges:
        any earlier edge has expiry at most its arrival time plus ``L``.
        """
        while self._instances and self._instances[0][0] <= t:
            self._instances.popleft()
        next_horizon = self._instances[-1][0] + 1 if self._instances else t + 1
        for horizon in range(next_horizon, t + self.L + 1):
            instance = SieveADN(
                self.k,
                self.epsilon,
                self.graph,
                self.oracle,
                min_expiry=horizon,
                changed_mode=self.changed_mode,
            )
            self._instances.append((horizon, instance))

    # ------------------------------------------------------------------
    def on_batch(
        self, t: int, batch: Union[EdgeBatch, Iterable[Interaction]]
    ) -> None:
        """Feed every instance whose horizon some batch edge reaches.

        Instance ``h`` processes the batch edges with expiry at or above
        ``h`` — the union of lifetime groups ``l >= h - t`` in a single
        call, as Alg. 2 prescribes, where ``l`` is the lifetime an edge
        has left at ``t`` (its expiry minus ``t``), which must not exceed
        ``L``.  One reverse sweep labels each source
        with its latest batch expiry and each candidate with the widest
        horizon it reaches (:func:`~repro.influence.changed.
        changed_node_labels`), and each instance receives the candidates
        labelled at or above its horizon, largest horizon first.
        """
        batch = as_edge_batch(t, batch)
        self._last_time = t
        self._ensure_instances(t)
        if not batch:
            return
        expiries = batch.expiries
        reach = max(expiries)
        check_lifetime_bound(t, reach, self.L)
        seeds = latest_expiry_by_source(zip(batch.sources, expiries))
        labelled = changed_node_labels(
            self.graph,
            seeds,
            self.changed_mode,
            backend=getattr(self.oracle, "backend", "dict"),
        )
        for horizon, instance in reversed(self._instances):
            if horizon <= reach:
                instance.on_candidates(t, candidates_at(labelled, horizon))

    # ------------------------------------------------------------------
    def query(self) -> Solution:
        """Output of the head instance: a (1/2 - eps) solution on ``G_t``."""
        while self._instances and self._instances[0][0] <= self.graph.time:
            self._instances.popleft()
        if not self._instances:
            return Solution.empty(self._last_time)
        head_horizon, head = self._instances[0]
        solution = head.query()
        return Solution(
            nodes=solution.nodes, value=solution.value, time=self._last_time
        )

    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Number of live SIEVEADN instances (== L between batches)."""
        return len(self._instances)

    def horizons(self) -> List[int]:
        """Current instance horizons, ascending (for tests/diagnostics)."""
        return [h for h, _ in self._instances]

    def profile(self, *, exact: bool = False) -> List[Tuple[int, float]]:
        """The full ``g_t(l)`` curve over all ``L`` instances (paper Fig. 5).

        Returns ``(index, value)`` pairs for ``l = 1..L``; the curve
        HISTAPPROX approximates with its compressed histogram.  With
        ``exact=True`` each instance's output is re-evaluated at the
        current time (L extra oracle-call groups); the default reads the
        cached values.
        """
        t = self.graph.time
        pairs: List[Tuple[int, float]] = []
        for horizon, instance in self._instances:
            value = (
                instance.query_value() if exact else instance.query_value_cached()
            )
            pairs.append((horizon - t, value))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BasicReduction(k={self.k}, L={self.L}, "
            f"instances={len(self._instances)})"
        )
