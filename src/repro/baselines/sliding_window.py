"""Sliding-window streaming submodular maximization (Epasto et al., 2017).

An *extension* baseline (the paper discusses it in Related Work as the
state of the art for the sliding-window special case, with a ``(1/3 - eps)``
guarantee).  The algorithm keeps a smooth histogram of SieveStreaming
instances keyed by their *start position*: instance ``s`` has processed
every element from position ``s`` onward.  At query time the answer comes
from the oldest instance whose start lies inside the window.  Redundant
instances — those sandwiched between two instances with eps-close values —
are discarded, keeping ``O(log(k)/eps)`` instances alive.

This class solves the *generic* SSO-over-sliding-window problem for a static
objective (it does not know about TDNs): the reproduction uses it in tests
to cross-validate HISTAPPROX on constant-lifetime streams, where the two
models coincide, and in the ablation benches.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.core.sieve_streaming import SieveStreaming
from repro.errors import check_fraction, check_positive_int

Node = Hashable


class SlidingWindowSSO:
    """Smooth-histogram SSO over the last ``window`` stream elements.

    Args:
        function_factory: zero-argument callable returning a fresh
            :class:`SetFunction`; each histogram instance owns one (the
            objective may be stateful, e.g. coverage with internal caches).
        k: cardinality budget.
        epsilon: sieve and histogram resolution.
        window: window length ``W`` in elements.
    """

    label = "SlidingWindowSSO"

    def __init__(
        self,
        function_factory,
        k: int,
        epsilon: float,
        window: int,
    ) -> None:
        self._factory = function_factory
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.window = check_positive_int(window, "window")
        # (start_position, sieve) ascending by start.
        self._instances: List[Tuple[int, SieveStreaming]] = []
        self._position = 0

    # ------------------------------------------------------------------
    def process(self, element: Node) -> None:
        """Ingest the next stream element."""
        start = self._position
        self._position += 1
        # A new instance starts at every element; redundancy removal keeps
        # the set logarithmic.
        self._instances.append(
            (start, SieveStreaming(self._factory(), self.k, self.epsilon))
        )
        for _, sieve in self._instances:
            sieve.process(element)
        self._evict_expired()
        self._reduce_redundancy()

    def _evict_expired(self) -> None:
        """Drop instances that started before the window, keeping one cover.

        The oldest instance whose start is at or before the window head must
        be kept (it is the best available over-approximation of the window),
        but everything older than *it* is useless.
        """
        head = self._position - self.window
        while len(self._instances) >= 2 and self._instances[1][0] <= head:
            del self._instances[0]

    def _reduce_redundancy(self) -> None:
        position = 0
        while position < len(self._instances) - 2:
            anchor_value = self._instances[position][1].query()[1]
            cutoff = (1.0 - self.epsilon) * anchor_value
            farthest = None
            for j in range(len(self._instances) - 1, position, -1):
                if self._instances[j][1].query()[1] >= cutoff:
                    farthest = j
                    break
            if farthest is not None and farthest > position + 1:
                del self._instances[position + 1 : farthest]
            position += 1

    # ------------------------------------------------------------------
    def query(self) -> Tuple[List[Node], float]:
        """Best sieve set of the oldest in-window (or covering) instance."""
        if not self._instances:
            return [], 0.0
        return self._instances[0][1].query()

    @property
    def num_instances(self) -> int:
        """Live histogram instances (diagnostics)."""
        return len(self._instances)
