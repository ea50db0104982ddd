"""One time step's arrivals as columns.

The paper's trackers take a batch of interactions per time step (Alg. 1
line 3; Alg. 3 lines 3-18), and all they read of an arrival is its
source, its target and when it expires.  :class:`EdgeBatch` is that
batch as three parallel lists, the one form a step's edges take inside
the library: :meth:`InfluenceTracker.step <repro.core.tracker.
InfluenceTracker.step>` validates a step and builds its columns,
:meth:`TDNGraph.add_batch <repro.tdn.graph.TDNGraph.add_batch>` ingests
them, and every ``on_batch`` receives the same object.  Entry points that
take :class:`~repro.tdn.interaction.Interaction` rows convert them with
:meth:`EdgeBatch.from_rows` (or :func:`as_edge_batch`).

Columns keep an arrival's expiry, not its stamp: a row stamped before
the batch time keeps its expiry and, iterated back out, reads as stamped
at the batch time with the lifetime it has left.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, List, Union

from repro.tdn.interaction import Interaction

Node = Hashable


class EdgeBatch:
    """The ``(source, target, expiry)`` columns of one step's arrivals.

    Attributes:
        time: the step the batch arrives at; every edge arrived at or
            before it.
        sources, targets: the edges' endpoints, in arrival order.
        expiries: each edge's expiry (``math.inf`` for an infinite
            lifetime), aligned with the endpoint columns.

    The constructor takes the columns as given; they must already obey
    the row rules (no self-loop, an expiry after ``time``).
    Iterating yields :class:`Interaction` rows stamped at ``time``, for
    code written against rows.
    """

    __slots__ = ("time", "sources", "targets", "expiries")

    def __init__(
        self,
        time: int,
        sources: List[Node],
        targets: List[Node],
        expiries: List[float],
    ) -> None:
        self.time = time
        self.sources = sources
        self.targets = targets
        self.expiries = expiries

    @classmethod
    def from_rows(cls, time: int, rows: Iterable[Interaction]) -> "EdgeBatch":
        """The columns of ``rows``; a row stamped after ``time`` is an error.

        Raises ``ValueError`` before returning anything when a row has
        not arrived by ``time``.
        """
        sources: List[Node] = []
        targets: List[Node] = []
        expiries: List[float] = []
        for row in rows:
            if row.time > time:
                raise ValueError(
                    f"interaction {row} is not alive at current time {time}; "
                    "advance_to() the batch time before adding"
                )
            sources.append(row.source)
            targets.append(row.target)
            expiries.append(row.expiry)
        return cls(time, sources, targets, expiries)

    def __len__(self) -> int:
        return len(self.expiries)

    def __iter__(self) -> Iterator[Interaction]:
        time = self.time
        for source, target, expiry in zip(self.sources, self.targets, self.expiries):
            lifetime = None if expiry == math.inf else int(expiry) - time
            yield Interaction(source, target, time, lifetime)

    def reaching(self, horizon: float) -> "EdgeBatch":
        """The edges that expire at or after ``horizon``, in order."""
        keep = [index for index, expiry in enumerate(self.expiries) if expiry >= horizon]
        if len(keep) == len(self.expiries):
            return self
        sources, targets, expiries = self.sources, self.targets, self.expiries
        return EdgeBatch(
            self.time,
            [sources[index] for index in keep],
            [targets[index] for index in keep],
            [expiries[index] for index in keep],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBatch(time={self.time}, edges={len(self.expiries)})"


def as_edge_batch(
    time: int, batch: Union[EdgeBatch, Iterable[Interaction]]
) -> EdgeBatch:
    """``batch`` itself when it is columns, else the columns of its rows."""
    if isinstance(batch, EdgeBatch):
        return batch
    return EdgeBatch.from_rows(time, batch)
