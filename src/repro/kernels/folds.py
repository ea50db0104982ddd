"""Pluggable influence semantics: the fold registry behind every engine.

PR 5 unified the *physics* of influence evaluation — the time-decayed
frontier sweep — into one :class:`~repro.kernels.traversal.
TraversalKernel`.  This module unifies the *accumulation*: what a seed
set scores once the sweep knows which nodes it reaches (and at which hop
depth).  Every semantics is a :class:`Fold` — the sum of a non-negative
per-node term ``term(v)`` over the reached set ``R(S)`` — registered
under a stable name that engines, oracles, the sharded executor and
persistence all speak:

``count``
    ``term(v) = 1``: today's spread ``|R(S)|``.  Routed through the
    pre-existing bit-plane popcount path, byte-identical to before this
    module existed.
``weighted_sum``
    ``term(v) = w[v]`` for a caller-supplied dense weight array: the
    PR 5 ROI path, expressed as a fold.
``hop_discount``
    ``term(v) = alpha ** d(v)`` where ``d(v)`` is the BFS hop distance
    from the seed set (seeds are depth 0): geometric per-hop decay in
    the Katz / communicability family.  ``alpha ** min(a, b) ==
    max(alpha ** a, alpha ** b)`` for ``alpha <= 1``, so this is a
    max-coverage objective — monotone and submodular, safe for every
    sieve in :mod:`repro.core`.
``time_decay``
    ``term(v) = 1 - exp(-lam * (maxexp_in(v) - eff))`` where
    ``maxexp_in(v)`` is the latest expiry over ``v``'s alive in-edges at
    horizon ``eff`` — how much lifetime ``v``'s freshest incoming
    interaction has left, squashed to ``[0, 1)``.  Nodes with no alive
    in-edge (reachable only as seeds; self-presence never expires) score
    exactly ``1``, as does an infinite-lifetime edge (``exp(-inf) == 0``
    — no special case).  A pure weighted coverage, hence submodular.

Each fold declares a vectorized bit-plane accumulator
(:meth:`~Fold.batch`, delegating to the kernel sweep that shares one
physical traversal across 64 seed sets) and an independent
scalar reference (:meth:`~Fold.reference`, a plain fold over a
``node -> hop level`` mapping) that the differential suites pin the
vectorized path against.  Folds are value objects: serializable as a
``(name, params)`` spec so a checkpoint can rebuild one, and hashable
via :meth:`~Fold.token` so memo tables can key cache entries per
semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.errors import SemanticsError
from repro.kernels.traversal import TraversalKernel, dense_weight_sum

__all__ = [
    "FOLD_NAMES",
    "CountFold",
    "Fold",
    "FoldSpec",
    "HopDiscountFold",
    "TimeDecayFold",
    "WeightedSumFold",
    "hop_discount_sum",
    "max_in_expiries",
    "resolve_fold",
]

#: The picklable wire/persistence form of a fold: ``(name, params)``.
FoldSpec = Tuple[str, Dict[str, float]]

#: Anything :func:`resolve_fold` accepts.
SemanticsLike = Union[str, "Fold", FoldSpec]


def hop_discount_sum(level_counts: Iterable[int], alpha: float) -> float:
    """The one accumulation order for geometric hop discounts.

    ``sum(alpha**level * count)`` in strictly ascending level order, in
    Python floats.  Both the kernel's bit-plane accumulator and the
    scalar reference route through this function, so the float64 result
    is bit-identical no matter which path produced the level counts.
    """
    acc = 0.0
    for level, count in enumerate(level_counts):
        if count:
            acc += (alpha**level) * count
    return acc


def max_in_expiries(
    indices: np.ndarray,
    expiries: np.ndarray,
    num_nodes: int,
    eff: Optional[float],
    arrivals: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Per-node max expiry over alive in-edges of a forward CSR.

    ``indices``/``expiries`` are the *forward* adjacency arrays — entry
    ``j`` is an edge into node ``indices[j]`` expiring at
    ``expiries[j]``.  Entries below the horizon are dead and ignored.
    Nodes with no alive in-edge get ``-inf`` (the monoid identity of
    ``max``).  ``arrivals`` (the ``(targets, expiries)`` columns of an
    arrival log) are folded in the same way: ``max`` is associative, so a
    stale base plus the arrival maxima lands on exactly the value a fresh
    snapshot of the current graph would derive.
    """
    out = np.full(num_nodes, -np.inf, dtype=np.float64)
    columns = [(indices, expiries)]
    if arrivals is not None:
        columns.append(arrivals)
    for targets, target_expiries in columns:
        if eff is not None:
            keep = target_expiries >= eff
            targets, target_expiries = targets[keep], target_expiries[keep]
        if targets.shape[0]:
            np.maximum.at(out, targets, target_expiries)
    return out


class Fold:
    """One influence semantics over the shared traversal kernel.

    Subclasses pin ``name``, validate their parameters, and implement
    the vectorized :meth:`batch` and the scalar :meth:`reference`.
    Every shipped fold sums non-negative per-node terms (the empty set
    scores ``0.0``), which is what keeps each one monotone submodular and
    therefore safe under every tracker in :mod:`repro.core`.
    """

    name: str = ""

    def __init__(self, **params: float) -> None:
        self.params: Dict[str, float] = {
            key: float(value) for key, value in params.items()
        }

    # ------------------------------------------------------------------
    # Wiring contract
    # ------------------------------------------------------------------
    @property
    def needs_weights(self) -> bool:
        """True when :meth:`batch` requires caller-supplied node values."""
        return False

    @property
    def derives_node_values(self) -> bool:
        """True when node values come from the adjacency (see
        :meth:`values_from_max_in`), not from the caller."""
        return False

    def values_from_max_in(
        self, max_in: np.ndarray, eff: Optional[float]
    ) -> np.ndarray:
        """Dense node values from per-node max alive in-expiries."""
        raise SemanticsError(
            f"semantics {self.name!r} does not derive node values"
        )

    def batch(
        self,
        kernel: TraversalKernel,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        node_values: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Vectorized bit-plane evaluation of a batch of seed sets."""
        raise NotImplementedError

    def reference(
        self,
        levels: Mapping[int, int],
        node_values: Optional[np.ndarray] = None,
    ) -> float:
        """Scalar reference: fold a ``node -> hop level`` mapping.

        Independent of the bit-plane machinery — the differential suites
        feed this a dict-BFS result and assert :meth:`batch` matches it
        bit for bit.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Identity / wire form
    # ------------------------------------------------------------------
    def token(self) -> Tuple[str, Tuple[Tuple[str, float], ...]]:
        """Hashable identity for memo keys: params included, so two
        parameterizations of one fold never share cache entries."""
        return (self.name, tuple(sorted(self.params.items())))

    def spec(self) -> FoldSpec:
        """The picklable ``(name, params)`` wire/persistence form."""
        return (self.name, dict(self.params))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fold) and self.token() == other.token()

    def __hash__(self) -> int:
        return hash(self.token())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({args})"


class CountFold(Fold):
    """``term(v) = 1``: the paper's spread ``|R(S)|``.

    Routed through the pre-fold popcount path
    (:meth:`~repro.kernels.traversal.TraversalKernel.spread_counts`)
    unchanged, so counts stay byte-identical to the pre-refactor kernel
    and the refactor costs nothing on the hot path.
    """

    name = "count"

    def __init__(self) -> None:
        super().__init__()

    def batch(
        self,
        kernel: TraversalKernel,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        node_values: Optional[np.ndarray] = None,
    ) -> List[float]:
        return [float(count) for count in kernel.spread_counts(id_sets, eff)]

    def reference(
        self,
        levels: Mapping[int, int],
        node_values: Optional[np.ndarray] = None,
    ) -> float:
        return float(len(levels))


class WeightedSumFold(Fold):
    """``term(v) = w[v]`` over a caller-supplied dense weight array."""

    name = "weighted_sum"

    def __init__(self) -> None:
        super().__init__()

    @property
    def needs_weights(self) -> bool:
        return True

    def batch(
        self,
        kernel: TraversalKernel,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        node_values: Optional[np.ndarray] = None,
    ) -> List[float]:
        if node_values is None:
            raise SemanticsError(
                "semantics 'weighted_sum' requires a dense node-weight array"
            )
        return kernel.weighted_spread_sums(id_sets, eff, node_values)

    def reference(
        self,
        levels: Mapping[int, int],
        node_values: Optional[np.ndarray] = None,
    ) -> float:
        if node_values is None:
            raise SemanticsError(
                "semantics 'weighted_sum' requires a dense node-weight array"
            )
        return dense_weight_sum(node_values, levels.keys())


class HopDiscountFold(Fold):
    """``term(v) = alpha ** d(v)``: geometric per-hop decay."""

    name = "hop_discount"

    def __init__(self, alpha: float = 0.5) -> None:
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise SemanticsError(
                f"hop_discount alpha must be in (0, 1], got {alpha!r}"
            )
        super().__init__(alpha=alpha)

    @property
    def alpha(self) -> float:
        return self.params["alpha"]

    def batch(
        self,
        kernel: TraversalKernel,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        node_values: Optional[np.ndarray] = None,
    ) -> List[float]:
        alpha = self.alpha
        return [
            hop_discount_sum(counts, alpha)
            for counts in kernel.spread_level_counts(id_sets, eff)
        ]

    def reference(
        self,
        levels: Mapping[int, int],
        node_values: Optional[np.ndarray] = None,
    ) -> float:
        if not levels:
            return 0.0
        counts = [0] * (max(levels.values()) + 1)
        for level in levels.values():
            counts[level] += 1
        return hop_discount_sum(counts, self.alpha)


class TimeDecayFold(Fold):
    """``term(v) = 1 - exp(-lam * (maxexp_in(v) - eff))``: recency score.

    A node is worth more the more lifetime its freshest alive incoming
    interaction has left at the query horizon — the paper's exponential
    decay model turned into a per-node score.  Reduces to a weighted sum
    over a dense value array derived per ``(arrays, eff)`` by
    :func:`max_in_expiries` + :meth:`values_from_max_in`, so it rides
    the existing weighted bit-plane sweep.
    """

    name = "time_decay"

    def __init__(self, lam: float = 0.1) -> None:
        lam = float(lam)
        if not lam > 0.0:
            raise SemanticsError(f"time_decay lam must be > 0, got {lam!r}")
        super().__init__(lam=lam)

    @property
    def lam(self) -> float:
        return self.params["lam"]

    @property
    def derives_node_values(self) -> bool:
        return True

    def values_from_max_in(
        self, max_in: np.ndarray, eff: Optional[float]
    ) -> np.ndarray:
        base = 0.0 if eff is None else float(eff)
        with np.errstate(over="ignore", invalid="ignore"):
            values = 1.0 - np.exp(-self.lam * (max_in - base))
        # An infinite max_in weighs exactly 1.  At -inf (no alive in-edge)
        # the node is reachable only as a seed, and its own presence
        # never expires; at +inf (an infinite-lifetime in-edge) its
        # remaining life never runs out, even at an infinite horizon,
        # where inf - inf would otherwise make the weight NaN.
        values[np.isinf(max_in)] = 1.0
        return values

    def batch(
        self,
        kernel: TraversalKernel,
        id_sets: Sequence[Sequence[int]],
        eff: Optional[float],
        node_values: Optional[np.ndarray] = None,
    ) -> List[float]:
        if node_values is None:
            raise SemanticsError(
                "semantics 'time_decay' requires derived node values; "
                "engines compute them via max_in_expiries"
            )
        return kernel.weighted_spread_sums(id_sets, eff, node_values)

    def reference(
        self,
        levels: Mapping[int, int],
        node_values: Optional[np.ndarray] = None,
    ) -> float:
        if node_values is None:
            raise SemanticsError(
                "semantics 'time_decay' requires derived node values"
            )
        return dense_weight_sum(node_values, levels.keys())


_FOLDS: Dict[str, Type[Fold]] = {
    CountFold.name: CountFold,
    WeightedSumFold.name: WeightedSumFold,
    HopDiscountFold.name: HopDiscountFold,
    TimeDecayFold.name: TimeDecayFold,
}

#: Every registered semantics name, stable and sorted.
FOLD_NAMES: Tuple[str, ...] = tuple(sorted(_FOLDS))


def resolve_fold(semantics: SemanticsLike) -> Fold:
    """Resolve a name, ``(name, params)`` spec, or ready fold instance.

    The one entry point every layer uses — oracle construction, worker
    task decoding, checkpoint loading — so an unknown semantics name
    fails with the same :class:`~repro.errors.SemanticsError` everywhere.
    """
    if isinstance(semantics, Fold):
        return semantics
    params: Dict[str, float] = {}
    if isinstance(semantics, str):
        name = semantics
    elif (
        isinstance(semantics, (tuple, list))
        and len(semantics) == 2
        and isinstance(semantics[0], str)
    ):
        name = semantics[0]
        params = dict(semantics[1]) if semantics[1] else {}
    else:
        raise SemanticsError(
            "semantics must be a name, a (name, params) pair, or a Fold; "
            f"got {semantics!r}"
        )
    cls = _FOLDS.get(name)
    if cls is None:
        raise SemanticsError(
            f"unknown influence semantics {name!r}; "
            f"expected one of {list(FOLD_NAMES)}"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise SemanticsError(
            f"invalid parameters for semantics {name!r}: {exc}"
        ) from None
