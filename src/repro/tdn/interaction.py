"""The interaction record (paper Definition 1).

An interaction ``<u, v, tau>`` states that node ``u`` exerted influence on
node ``v`` at (discrete) time ``tau`` — for example ``v`` retweeted ``u``'s
tweet, or place ``u`` attracted user ``v`` to check in.  Interactions are the
*only* input to every algorithm in this library; there is no separate
influence-probability estimation step (the approach is data driven, Section
VI of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Type


@dataclass(frozen=True)
class Interaction:
    """A directed, timestamped influence event ``source -> target``.

    Attributes:
        source: the influencing node (``u`` in the paper; e.g. the retweeted
            user, or the checked-in place).
        target: the influenced node (``v``; e.g. the retweeting user).
        time: the discrete arrival timestamp ``tau`` (>= 0).
        lifetime: the edge lifetime ``l_tau(e)`` assigned at creation, in
            time steps (>= 1), or ``None`` for an infinite lifetime
            (addition-only networks, paper Example 3).

    The record is frozen so that interactions can live in sets and serve as
    dictionary keys; streams treat them as immutable facts.
    """

    source: Hashable
    target: Hashable
    time: int
    lifetime: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        check_edge(self.source, self.target, self.lifetime)
        check_time(self.time)

    @property
    def expiry(self) -> float:
        """First time step at which this interaction is no longer alive.

        An edge arriving at ``tau`` with lifetime ``l`` is alive during
        ``[tau, tau + l - 1]`` and expires at ``tau + l``.  Infinite-lifetime
        edges never expire (``math.inf``).
        """
        if self.lifetime is None:
            return float("inf")
        return self.time + self.lifetime

    def alive_at(self, t: int) -> bool:
        """Return whether the interaction is alive at time ``t``.

        Implements the paper's membership rule ``e in E_t`` iff
        ``tau <= t < tau + l_tau(e)``.
        """
        return self.time <= t < self.expiry

    def remaining_lifetime(self, t: int) -> float:
        """Return ``l_t(e) = l_tau(e) - (t - tau)``, the lifetime left at ``t``.

        Zero or negative values mean the edge has expired; callers that only
        deal in alive edges should consult :meth:`alive_at` first.
        """
        return self.expiry - t

    def with_lifetime(self, lifetime) -> "Interaction":
        """Return a copy of this interaction with a different lifetime."""
        return Interaction(self.source, self.target, self.time, lifetime)


def check_edge(
    source: Hashable,
    target: Hashable,
    lifetime,
    value_error: Type[ValueError] = ValueError,
    type_error: Type[TypeError] = TypeError,
) -> None:
    """Require a valid edge: no self-loop, and a lifetime that is ``None``
    or an int (not a bool) of at least 1.

    The one rule behind :class:`Interaction` and every entry point that
    takes ``(source, target, lifetime)`` fields without building a row;
    such a caller passes its own error classes (subclasses of the two
    defaults).
    """
    if source == target:
        raise value_error(
            f"self-loop interaction not allowed (node {source!r}); "
            "the paper's TDN model forbids a node influencing itself"
        )
    if lifetime is not None:
        if isinstance(lifetime, bool) or not isinstance(lifetime, int):
            raise type_error(f"lifetime must be an int or None, got {type(lifetime).__name__}")
        if lifetime < 1:
            raise value_error(f"lifetime must be >= 1, got {lifetime}")


def check_time(
    time,
    value_error: Type[ValueError] = ValueError,
    type_error: Type[TypeError] = TypeError,
    name: str = "time",
) -> None:
    """Require a time step: an int (not a bool) of at least 0."""
    if isinstance(time, bool) or not isinstance(time, int):
        raise type_error(f"{name} must be an int, got {type(time).__name__}")
    if time < 0:
        raise value_error(f"{name} must be >= 0, got {time}")
