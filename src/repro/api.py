"""The stable public facade: one documented way in.

Everything a library user needs lives here (and is re-exported from the
bare ``repro`` package): :func:`open_tracker` to build a configured
tracker from names and plain values, the :class:`Semantics` enum naming
the registered influence folds, and the exception hierarchy from
:mod:`repro.errors`.  Internal layers (``repro.kernels``, ``repro.tdn``,
``repro.influence``, ``repro.parallel``, ...) remain importable for power
users and tests, but only this module and ``repro.errors`` are covered by
the compatibility promise — the RPL105 lint rule keeps ``examples/`` and
``tests/integration/`` honest about using the facade only.

Quickstart::

    from repro.api import Semantics, open_tracker

    tracker = open_tracker("hist-approx", k=10, epsilon=0.2)
    for t, batch in my_stream:                  # batches of (u, v) pairs
        solution = tracker.step(t, batch)

    trending = open_tracker("trend", k=5, semantics=Semantics.TIME_DECAY)

Observability: :func:`repro.obs.registry.metrics_registry` (re-exported
here) returns the process-wide metrics registry;
:func:`~repro.kernels.instrument.enable_kernel_metrics` turns on sampled
kernel sweep counters.  Metric names live in :mod:`repro.obs.names`
(re-exported as ``metric_names``).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from repro.core.tracker import InfluenceTracker, Solution
from repro.errors import (
    ConfigError,
    DegradedExecutionError,
    PersistenceError,
    ReproError,
    SemanticsError,
    check_workers,
)
from repro.influence.oracle import InfluenceOracle
from repro.kernels import (
    Fold,
    disable_kernel_metrics,
    enable_kernel_metrics,
    resolve_fold,
)
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.tdn.graph import TDNGraph
from repro.tdn.lifetimes import LifetimePolicy

__all__ = [
    "ConfigError",
    "DegradedExecutionError",
    "InfluenceTracker",
    "PersistenceError",
    "ReproError",
    "Semantics",
    "SemanticsError",
    "Solution",
    "disable_kernel_metrics",
    "enable_kernel_metrics",
    "metric_names",
    "metrics_registry",
    "open_tracker",
]


class Semantics(str, Enum):
    """Registered influence semantics, one per fold in the kernel registry.

    Values are the registry names, so a plain string works anywhere a
    ``Semantics`` member does; the enum exists to make the choices
    discoverable and typo-proof at the facade.
    """

    COUNT = "count"
    WEIGHTED_SUM = "weighted_sum"
    HOP_DISCOUNT = "hop_discount"
    TIME_DECAY = "time_decay"


def open_tracker(
    algorithm: str = "hist-approx",
    *,
    k: int = 10,
    epsilon: float = 0.1,
    semantics: Union[Semantics, str, tuple, Fold, None] = None,
    weights=None,
    default_weight: float = 1.0,
    lifetime_policy: Optional[LifetimePolicy] = None,
    L: Optional[int] = None,
    refine_head: bool = False,
    seed=None,
    workers: int = 1,
    graph: Optional[TDNGraph] = None,
) -> InfluenceTracker:
    """Open a configured influence tracker — the one public constructor.

    Args:
        algorithm: ``"hist-approx"`` (default), ``"basic-reduction"``,
            ``"sieve-adn"``, ``"decayed-centrality"``, ``"trend"``,
            ``"greedy"`` or ``"random"``.
        k: number of influential nodes to maintain.
        epsilon: approximation knob of the sieve algorithms.
        semantics: influence semantics — a :class:`Semantics` member, a
            registry name, a ``(name, params)`` pair, or a ready
            :class:`~repro.kernels.Fold`.  ``None`` picks the algorithm's
            natural semantics (``hop_discount`` for decayed-centrality,
            ``time_decay`` for trend, ``count`` otherwise).
            ``"hist-approx"`` and ``"basic-reduction"`` refuse
            ``time_decay`` (a ``SemanticsError``): their bounds need
            values that never fall as edges arrive.
        weights: node weights (mapping or callable) for
            :data:`Semantics.WEIGHTED_SUM` — the one semantics whose
            per-node state cannot ride in a fold parameter, so the facade
            builds the weighted :class:`~repro.influence.oracle.
            InfluenceOracle` itself and injects it into the tracker.
            Only valid with ``weighted_sum``.
        default_weight: weight for nodes missing from ``weights``.
        lifetime_policy, L, refine_head, seed, workers, graph:
            forwarded to :class:`InfluenceTracker` (see its docs).

    Raises:
        SemanticsError: unknown semantics name or invalid parameters.
        ConfigError: inconsistent argument combinations (e.g. ``weights``
            without ``weighted_sum``), or ``workers`` not an int >= 1.
    """
    check_workers(workers)
    name = semantics.value if isinstance(semantics, Semantics) else semantics
    fold = resolve_fold(name) if name is not None else None
    oracle = None
    if fold is not None and fold.name == Semantics.WEIGHTED_SUM.value:
        # The injected oracle owns semantics and workers from here on.
        if graph is None:
            graph = TDNGraph()
        oracle = InfluenceOracle(
            graph,
            semantics=fold,
            weights=weights,
            default_weight=default_weight,
            parallel=workers if workers > 1 else None,
        )
        name, workers = None, 1
    elif weights is not None:
        raise ConfigError(
            "weights are only meaningful with semantics='weighted_sum'; "
            f"got semantics={semantics!r}"
        )
    return InfluenceTracker(
        algorithm,
        k=k,
        epsilon=epsilon,
        lifetime_policy=lifetime_policy,
        L=L,
        refine_head=refine_head,
        seed=seed,
        graph=graph,
        workers=workers,
        semantics=name,
        oracle=oracle,
    )
