"""Common tracking protocol and the user-facing facade.

Every algorithm in this library — the paper's three (SIEVEADN,
BASICREDUCTION, HISTAPPROX) and every baseline — implements the same small
protocol: it observes batches of interactions that have *already been
inserted* into a shared :class:`~repro.tdn.graph.TDNGraph`, and answers
queries with a :class:`Solution`.  The experiment harness replays one stream
into one graph and forwards each batch to many algorithms, each with its own
oracle counter, which is how the paper's head-to-head figures are produced.

:class:`InfluenceTracker` is the convenience entry point for library users
who just want to track influential nodes: it owns the graph, assigns
lifetimes, and drives a single algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, List, Optional, Protocol, Tuple, Union

from repro.errors import ConfigError, ConfigTypeError, SemanticsError, check_workers
from repro.influence.oracle import InfluenceOracle
from repro.tdn.batch import EdgeBatch
from repro.tdn.graph import INFINITE_EXPIRY, TDNGraph
from repro.tdn.interaction import Interaction, check_edge, check_time
from repro.tdn.lifetimes import LifetimePolicy
from repro.tdn.stream import InteractionStream

Node = Hashable


@dataclass(frozen=True)
class Solution:
    """A query answer: the selected nodes and their influence spread.

    Attributes:
        nodes: the selected node set (at most ``k``), in selection order.
        value: ``f_t`` of the selected set at query time.
        time: the time step the answer refers to.
    """

    nodes: Tuple[Node, ...] = field(default_factory=tuple)
    value: float = 0.0
    time: int = 0

    @staticmethod
    def empty(time: int = 0) -> "Solution":
        """The empty solution (value 0)."""
        return Solution(nodes=(), value=0.0, time=time)


def check_horizon_oracle(oracle: InfluenceOracle, tracker: str) -> InfluenceOracle:
    """Return ``oracle`` unless its fold can lose value as edges arrive.

    BASICREDUCTION and HISTAPPROX answer with an instance's value over the
    edges alive past its horizon, a subgraph of ``G_t``.  Their bounds
    (Theorems 4 and 7) need that value never to exceed ``f_t`` and never
    to fall while the instance only takes edges.  ``time_decay`` breaks
    both: a node with no alive in-edge scores 1, and its first in-edge or
    a clock tick lowers that term.
    """
    if oracle.semantics == "time_decay":
        raise SemanticsError(
            f"{tracker} needs a fold whose values never fall as edges "
            "arrive; 'time_decay' can"
        )
    return oracle


def check_lifetime_bound(t: int, reach: float, L: int) -> None:
    """Require a batch whose latest expiry ``reach`` leaves at most ``L``
    steps at ``t``: BASICREDUCTION keeps one instance per lifetime up to
    ``L`` and has none for an edge that outlives them.
    """
    if reach > t + L:
        got = (
            "an edge that never expires"
            if reach == math.inf
            else f"an edge with {reach - t} steps left at time {t}"
        )
        raise ConfigError(
            f"BasicReduction requires lifetimes in [1, L={L}]; "
            f"got {got} — use a truncated lifetime "
            "policy or HistApprox (which allows unbounded lifetimes)"
        )


class TrackingAlgorithm(Protocol):
    """Protocol implemented by every tracker and baseline.

    Contract: the caller advances the shared graph to ``t`` and inserts the
    batch *before* calling :meth:`on_batch`; the algorithm may then evaluate
    spreads through its oracle and update internal state.  :meth:`query` may
    be called at any time after at least one batch.

    The batch is an :class:`~repro.tdn.batch.EdgeBatch`: the step's
    ``sources``, ``targets`` and ``expiries`` as columns, which the
    library's algorithms read directly.  Iterating it yields
    :class:`Interaction` rows stamped at ``t`` (an edge stamped earlier
    reads with the lifetime it has left), so an algorithm written against
    rows keeps working.
    """

    #: Human-readable name used in experiment reports.
    label: str

    #: The oracle whose counter records this algorithm's cost.
    oracle: InfluenceOracle

    def on_batch(self, t: int, batch: EdgeBatch) -> None:
        """Observe the batch that just arrived at time ``t`` (already in
        the graph), as columns that also iterate as rows."""
        ...

    def query(self) -> Solution:
        """Return the current influential-node solution."""
        ...


class InfluenceTracker:
    """Facade: track influential nodes from a raw interaction feed.

    Args:
        algorithm: one of ``"hist-approx"`` (default; the paper's
            recommendation), ``"basic-reduction"``, ``"sieve-adn"``,
            ``"decayed-centrality"``, ``"trend"``, ``"greedy"``,
            ``"random"``, or a callable ``(graph, oracle) ->
            TrackingAlgorithm`` for custom setups.
        k: number of influential nodes to maintain.
        epsilon: approximation knob of the sieve algorithms.
        lifetime_policy: default lifetime assignment for interactions that
            do not carry one (``None`` keeps bare interactions infinite,
            i.e. the addition-only regime).
        L: maximum lifetime (required by ``"basic-reduction"``).
        refine_head: enable HISTAPPROX's (1/2 - eps) head refinement.
        seed: RNG seed (used by the ``"random"`` baseline).
        workers: evaluation worker count for the oracle's sharded
            parallel engine (1 = serial; ``N > 1`` deals batched spread
            sweeps, in whole 64-set planes, to up to N threads, each
            sweeping its own kernel clone of the graph's CSR engine, with
            bit-identical results).  Anything but an int >= 1 is a
            ``ConfigError``.  Call :meth:`close` when done to stop the
            threads.
        semantics: influence semantics the oracle evaluates under — a
            registered fold name (``"count"``, ``"hop_discount"``,
            ``"time_decay"``; ``"weighted_sum"`` needs weights, so it
            comes in through ``oracle``), a ``(name, params)`` pair, or a
            :class:`~repro.kernels.Fold` instance.  ``None`` (default)
            picks the algorithm's natural semantics: ``hop_discount`` for
            ``"decayed-centrality"``, ``time_decay`` for ``"trend"``,
            plain ``count`` for everything else.
        oracle: a prebuilt oracle to drive evaluations (must be bound to
            the ``graph`` argument, which then becomes mandatory).  This
            is how weighted spread enters the facade: construct
            ``InfluenceOracle(graph, semantics="weighted_sum",
            weights=...)`` on a shared graph and inject it;
            ``semantics``/``workers`` are then the oracle's business and
            must be left at their defaults.

    Example:
        >>> from repro.tdn.lifetimes import GeometricLifetime
        >>> tracker = InfluenceTracker("hist-approx", k=2, epsilon=0.2,
        ...                            lifetime_policy=GeometricLifetime(0.2, 50, seed=7))
        >>> for t in range(3):
        ...     _ = tracker.step(t, [("a", f"b{t}", None), ("a", "c", None)])
        >>> sorted(tracker.query().nodes)[:1]
        ['a']
    """

    def __init__(
        self,
        algorithm: Union[str, object] = "hist-approx",
        *,
        k: int = 10,
        epsilon: float = 0.1,
        lifetime_policy: Optional[LifetimePolicy] = None,
        L: Optional[int] = None,
        refine_head: bool = False,
        seed=None,
        graph: Optional[TDNGraph] = None,
        workers: int = 1,
        semantics=None,
        oracle=None,
    ) -> None:
        check_workers(workers)
        self.graph = graph if graph is not None else TDNGraph()
        if oracle is not None:
            if getattr(oracle, "graph", None) is not self.graph:
                raise ConfigError(
                    "an injected oracle must be bound to the tracker's graph; "
                    "construct the graph first and pass it via graph="
                )
            if semantics is not None or workers > 1:
                raise ConfigError(
                    "semantics/workers are owned by an injected oracle; "
                    "configure them on the oracle instead"
                )
            self.oracle = oracle
        else:
            if semantics is None:
                semantics = _default_semantics(algorithm)
            self.oracle = InfluenceOracle(
                self.graph,
                parallel=workers if workers > 1 else None,
                semantics=semantics,
            )
        self.lifetime_policy = lifetime_policy
        self._last_time: Optional[int] = None
        if callable(algorithm):
            self.algorithm: TrackingAlgorithm = algorithm(self.graph, self.oracle)
        else:
            self.algorithm = _build_algorithm(
                str(algorithm),
                graph=self.graph,
                oracle=self.oracle,
                k=k,
                epsilon=epsilon,
                L=L,
                refine_head=refine_head,
                seed=seed,
            )
        from repro.core.basic_reduction import BasicReduction

        # The one tracker that bounds lifetimes; step checks the bound
        # before the graph moves.
        self._lifetime_bound: Optional[int] = (
            self.algorithm.L if isinstance(self.algorithm, BasicReduction) else None
        )

    # ------------------------------------------------------------------
    def step(self, t: int, interactions: Iterable) -> Solution:
        """Advance to time ``t``, ingest ``interactions``, return the solution.

        Each item may be an :class:`Interaction` or a ``(source, target)`` /
        ``(source, target, lifetime)`` tuple; tuples arrive at ``t``.
        Lifetimes missing after that are drawn from the tracker's lifetime
        policy (or remain infinite without one).

        The whole step is checked before anything changes: ``t`` must be
        an int (not a bool), at least 0, past the previous step and not
        behind the graph's clock, and every item must be a valid edge
        alive at ``t`` (under BASICREDUCTION, with at most ``L`` steps
        left).  A wrong type raises ``ConfigTypeError`` and a wrong value
        ``ConfigError``, and the graph and the algorithm are left as they
        were.  The step's edges then travel as one
        :class:`~repro.tdn.batch.EdgeBatch` of columns, to the graph and
        to the algorithm.  A tuple becomes an :class:`Interaction` only
        when the lifetime policy draws its lifetime (a policy reads rows).
        """
        batch = self._step_batch(t, interactions)
        self.graph.advance_to(t)
        self.graph.add_batch(batch)
        self.algorithm.on_batch(t, batch)
        self._last_time = t
        return self.algorithm.query()

    def run(self, stream: InteractionStream) -> Iterator[Tuple[int, Solution]]:
        """Replay a stream, yielding ``(t, solution)`` after every batch."""
        for t, batch in stream:
            yield t, self.step(t, batch)

    def query(self) -> Solution:
        """Return the current solution without ingesting anything."""
        return self.algorithm.query()

    @property
    def oracle_calls(self) -> int:
        """Total influence-oracle evaluations spent so far."""
        return self.oracle.calls

    def close(self) -> None:
        """Stop the oracle's shard threads, if any (idempotent)."""
        self.oracle.close()

    def health_report(self) -> Optional[dict]:
        """The parallel engine's health snapshot (None when serial)."""
        return self.oracle.health_report()

    def __enter__(self) -> "InfluenceTracker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _step_batch(self, t, interactions: Iterable) -> EdgeBatch:
        """Check a step and build its columns (see :meth:`step`).

        Lifetimes are drawn from the policy only once every item has
        passed, in item order, so a step with a rejected item draws
        nothing; the drawn lifetimes then face the alive and ``L`` checks.
        """
        check_time(t, ConfigError, ConfigTypeError, "step time")
        if self._last_time is not None and t <= self._last_time:
            raise ConfigError(
                f"steps must have strictly increasing times; got {t} after {self._last_time}"
            )
        if t < self.graph.time:
            raise ConfigError(f"cannot step to {t}: the graph is at time {self.graph.time}")
        policy = self.lifetime_policy
        sources: List[Node] = []
        targets: List[Node] = []
        expiries: List[float] = []
        undrawn: List[Tuple[int, Interaction]] = []
        for item in interactions:
            if isinstance(item, tuple) and 2 <= len(item) <= 3:
                source, target = item[0], item[1]
                lifetime = item[2] if len(item) == 3 else None
                check_edge(source, target, lifetime, ConfigError, ConfigTypeError)
                if lifetime is not None:
                    expiry = t + lifetime
                else:
                    if policy is not None:
                        undrawn.append((len(expiries), Interaction(source, target, t)))
                    expiry = INFINITE_EXPIRY
            elif isinstance(item, Interaction):
                source, target = item.source, item.target
                if item.lifetime is None and policy is not None:
                    undrawn.append((len(expiries), item))
                elif item.time > t or item.expiry <= t:
                    raise ConfigError(f"interaction {item} is not alive at step {t}")
                expiry = item.expiry
            else:
                raise ConfigTypeError(
                    f"cannot interpret {item!r} as an interaction; pass Interaction "
                    "objects or (source, target[, lifetime]) tuples"
                )
            sources.append(source)
            targets.append(target)
            expiries.append(expiry)
        for index, row in undrawn:
            row = policy.assign(row)
            if row.time > t or row.expiry <= t:
                raise ConfigError(f"interaction {row} is not alive at step {t}")
            expiries[index] = row.expiry
        if self._lifetime_bound is not None and expiries:
            check_lifetime_bound(t, max(expiries), self._lifetime_bound)
        return EdgeBatch(t, sources, targets, expiries)


def _default_semantics(algorithm) -> str:
    """The natural influence semantics for a named algorithm.

    The semantics-driven trackers are unusable under plain counts (their
    constructors reject a count oracle), so naming them implies their
    fold; every other algorithm keeps the paper's reachability count.
    """
    if callable(algorithm):
        return "count"
    key = str(algorithm).lower().replace("_", "-")
    if key in ("decayed-centrality", "decayed", "decayedcentrality"):
        return "hop_discount"
    if key in ("trend", "trend-tracker", "trendtracker"):
        return "time_decay"
    return "count"


def _build_algorithm(
    name: str,
    *,
    graph: TDNGraph,
    oracle: InfluenceOracle,
    k: int,
    epsilon: float,
    L: Optional[int],
    refine_head: bool,
    seed,
) -> TrackingAlgorithm:
    """Instantiate a named algorithm (imports deferred to avoid cycles)."""
    key = name.lower().replace("_", "-")
    if key in ("hist-approx", "hist", "histapprox"):
        from repro.core.hist_approx import HistApprox

        return HistApprox(
            k=k,
            epsilon=epsilon,
            graph=graph,
            oracle=oracle,
            refine_head=refine_head,
        )
    if key in ("basic-reduction", "basic", "basicreduction"):
        from repro.core.basic_reduction import BasicReduction

        if L is None:
            raise ConfigError("basic-reduction requires the maximum lifetime L")
        return BasicReduction(k=k, epsilon=epsilon, L=L, graph=graph, oracle=oracle)
    if key in ("sieve-adn", "sieve", "sieveadn"):
        from repro.core.sieve_adn import SieveADN

        return SieveADN(k=k, epsilon=epsilon, graph=graph, oracle=oracle)
    if key in ("decayed-centrality", "decayed", "decayedcentrality"):
        from repro.core.decayed import DecayedCentralityTracker

        return DecayedCentralityTracker(k=k, graph=graph, oracle=oracle)
    if key in ("trend", "trend-tracker", "trendtracker"):
        from repro.core.decayed import TrendTracker

        return TrendTracker(k=k, graph=graph, oracle=oracle)
    if key == "greedy":
        # Deliberate injection seam: the factory hands back baseline
        # trackers by name; lazy import keeps core free of baselines at
        # module load (the only sanctioned core -> baselines edge).
        # repro-lint: disable-next=RPL102
        from repro.baselines.greedy_recompute import GreedyRecompute

        return GreedyRecompute(k=k, graph=graph, oracle=oracle)
    if key == "random":
        # Same sanctioned factory seam as the greedy baseline above.
        # repro-lint: disable-next=RPL102
        from repro.baselines.random_baseline import RandomBaseline

        return RandomBaseline(k=k, graph=graph, oracle=oracle, seed=seed)
    raise ConfigError(
        f"unknown algorithm {name!r}; expected one of hist-approx, "
        "basic-reduction, sieve-adn, decayed-centrality, trend, greedy, "
        "random, or a factory callable"
    )
