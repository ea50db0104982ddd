"""Lazy threshold-grid maintenance for sieve algorithms.

SieveStreaming [26] and all three of the paper's algorithms filter candidates
against the geometric threshold grid

    Theta = { (1+eps)^i / (2k) : (1+eps)^i in [Delta, 2k * Delta], i integer }

where ``Delta`` is the largest singleton value observed so far.  The grid is
maintained *lazily* (paper Alg. 1, lines 4-7): when ``Delta`` grows, sieve
sets whose threshold fell out of the window are deleted and new (empty) sets
are created for thresholds that entered it.  The grid always contains
``O(log(2k) / eps)`` thresholds, which bounds both space and per-candidate
work (Theorem 3).

Thresholds are indexed by their integer exponent ``i`` so the grid never
suffers floating-point drift: the same exponent always denotes the same
threshold.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, Iterator, List, Tuple

from repro.errors import check_fraction, check_positive_int

Node = Hashable

#: Tolerance used when mapping Delta onto integer exponents, guarding the
#: window boundaries against log rounding.
_EXPONENT_TOLERANCE = 1e-9


class SieveSet:
    """One candidate set ``S_theta``: at most ``k`` nodes kept per threshold.

    Keeps both insertion order (solutions are reported in selection order)
    and ``key``, the members as a frozenset, refreshed on every
    :meth:`add`: it serves O(1) duplicate checks (the paper's node stream
    may present the same node many times) and is the set the oracle is
    asked about, so its cached hash is reused by every memo probe.

    ``cached_value`` remembers the most recent real evaluation of
    ``f(S_theta)``.  On an addition-only view the objective of a fixed set
    only grows, so the cache is always a valid *lower bound* of the current
    value; HISTAPPROX's redundancy test reads it instead of spending oracle
    calls, which is how the paper's Theorem 8 can charge ReduceRedundancy no
    ``gamma`` factor.
    """

    __slots__ = ("nodes", "cached_value", "key")

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self.cached_value: float = 0.0
        self.key: FrozenSet[Node] = frozenset()

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self.key

    def add(self, node: Node) -> None:
        if node in self.key:
            raise ValueError(f"node {node!r} already in sieve set")
        self.nodes.append(node)
        self.key = self.key | {node}

    def copy(self) -> "SieveSet":
        dup = SieveSet()
        dup.nodes = list(self.nodes)
        dup.cached_value = self.cached_value
        dup.key = self.key
        return dup


class ThresholdSet:
    """The lazily maintained geometric grid of sieve thresholds.

    Args:
        k: cardinality budget.
        epsilon: grid resolution (the paper's eps); smaller values mean more
            thresholds, better approximation, more oracle calls.

    The object maps exponents to :class:`SieveSet` instances and re-windows
    itself whenever :meth:`update_delta` observes a larger singleton value.
    """

    def __init__(self, k: int, epsilon: float) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.delta = 0.0
        self._log_base = math.log1p(self.epsilon)
        self._sieves: Dict[int, SieveSet] = {}
        #: ``(threshold, sieve)`` in increasing threshold order; rebuilt
        #: whenever the grid changes, so :meth:`items` costs nothing.
        self._ordered: List[Tuple[float, SieveSet]] = []

    # ------------------------------------------------------------------
    def _window(self, delta: float) -> Tuple[int, int]:
        """Integer exponent window ``[lo, hi]`` for ``(1+eps)^i in [delta, 2k*delta]``."""
        log_delta = math.log(delta)
        lo = math.ceil(log_delta / self._log_base - _EXPONENT_TOLERANCE)
        hi = math.floor(
            (log_delta + math.log(2 * self.k)) / self._log_base + _EXPONENT_TOLERANCE
        )
        return lo, hi

    def threshold_value(self, exponent: int) -> float:
        """The threshold ``(1+eps)^i / (2k)`` for exponent ``i``."""
        return (1.0 + self.epsilon) ** exponent / (2.0 * self.k)

    # ------------------------------------------------------------------
    def update_delta(self, value: float) -> bool:
        """Raise ``Delta`` to ``value`` if larger; re-window the grid.

        Returns True when the grid changed.  Sets for thresholds leaving the
        window are discarded (their guarantees no longer matter — the optimum
        is now known to be larger); entering thresholds start empty, exactly
        as in the paper's lazy maintenance.
        """
        if value <= self.delta:
            return False
        self.delta = float(value)
        lo, hi = self._window(self.delta)
        for exponent in [e for e in self._sieves if e < lo or e > hi]:
            del self._sieves[exponent]
        for exponent in range(lo, hi + 1):
            if exponent not in self._sieves:
                self._sieves[exponent] = SieveSet()
        self._reorder()
        return True

    def restore(self, delta: float, sieves: Dict[int, SieveSet]) -> None:
        """Install a saved grid: ``Delta`` and its exponent-keyed sieves."""
        self.delta = delta
        self._sieves = dict(sieves)
        self._reorder()

    def _reorder(self) -> None:
        self._ordered = [
            (self.threshold_value(exponent), self._sieves[exponent])
            for exponent in sorted(self._sieves)
        ]

    # ------------------------------------------------------------------
    def items(self) -> List[Tuple[float, SieveSet]]:
        """``(threshold, sieve_set)`` pairs in increasing threshold order.

        The list is the grid's own cache, rebuilt only when the grid
        changes; callers iterate it and must not mutate it.
        """
        return self._ordered

    def sets(self) -> Iterator[SieveSet]:
        """Iterate the sieve sets (unordered use-cases: querying the max)."""
        return iter(self._sieves.values())

    def __len__(self) -> int:
        """Current grid size; O(log(2k)/eps) by construction."""
        return len(self._sieves)

    def copy(self) -> "ThresholdSet":
        """Deep-copy the grid (used when HISTAPPROX clones an instance)."""
        dup = ThresholdSet(self.k, self.epsilon)
        dup.restore(self.delta, {e: s.copy() for e, s in self._sieves.items()})
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThresholdSet(k={self.k}, epsilon={self.epsilon}, delta={self.delta}, "
            f"thresholds={len(self._sieves)})"
        )
