"""Interaction streams (paper Definition 2) and batching helpers.

A stream yields ``(t, batch)`` pairs in strictly increasing time order, where
``batch`` is the list of interactions arriving at step ``t`` (the paper
allows a batch of interactions per discrete step).  Algorithms never see the
stream directly — the experiment harness replays it into a shared
:class:`~repro.tdn.graph.TDNGraph` and forwards batches to each tracker — but
the abstractions here make streams composable: lifetimes can be assigned
lazily, long gaps can be compressed, and any iterable of interactions can be
replayed as a stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import LifetimePolicy

Batch = List[Interaction]


class InteractionStream(ABC):
    """Abstract chronological source of interaction batches."""

    @abstractmethod
    def __iter__(self) -> Iterator[Tuple[int, Batch]]:
        """Yield ``(t, batch)`` pairs with strictly increasing ``t``."""

    def with_lifetimes(self, policy: LifetimePolicy) -> "InteractionStream":
        """Return a stream whose interactions carry lifetimes from ``policy``.

        Interactions that already carry a lifetime are left untouched, so a
        policy can be used as a default for partially annotated data.
        """
        return _LifetimeAssignedStream(self, policy)

    def take(self, max_steps: int) -> "InteractionStream":
        """Return a stream truncated to the first ``max_steps`` batches."""
        return _TruncatedStream(self, max_steps)

    def materialize(self) -> List[Tuple[int, Batch]]:
        """Consume the stream into a list (for tests and re-runs)."""
        return list(self)


class MemoryStream(InteractionStream):
    """A stream backed by an in-memory collection of interactions.

    Interactions are grouped by timestamp and replayed in order.  Timestamps
    may be sparse; :class:`MemoryStream` yields only steps that actually have
    arrivals unless ``fill_gaps=True``, in which case empty batches are
    yielded for the intermediate steps (some trackers want to observe every
    tick so that expiries alone can change the solution).
    """

    def __init__(
        self, interactions: Iterable[Interaction], *, fill_gaps: bool = False
    ) -> None:
        by_time: Dict[int, Batch] = {}
        for interaction in interactions:
            by_time.setdefault(interaction.time, []).append(interaction)
        self._times = sorted(by_time)
        self._by_time = by_time
        self._fill_gaps = fill_gaps

    def __iter__(self) -> Iterator[Tuple[int, Batch]]:
        if not self._times:
            return
        if self._fill_gaps:
            for t in range(self._times[0], self._times[-1] + 1):
                yield (t, self._by_time.get(t, []))
        else:
            for t in self._times:
                yield (t, self._by_time[t])

    def __len__(self) -> int:
        if not self._times:
            return 0
        if self._fill_gaps:
            return self._times[-1] - self._times[0] + 1
        return len(self._times)


class BatchedStream(InteractionStream):
    """Re-times an interaction sequence into fixed-size batches.

    The paper's experiments feed interactions "sequentially according to
    their timestamps" with one (or a few) interactions per step; replaying a
    large trace at full temporal resolution is wasteful when only the
    *order* matters.  ``BatchedStream`` assigns consecutive groups of
    ``batch_size`` interactions to consecutive time steps 0, 1, 2, ...,
    preserving order while compressing the clock.
    """

    def __init__(
        self, interactions: Sequence[Interaction], batch_size: int = 1
    ) -> None:
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self._interactions = list(interactions)
        self._batch_size = batch_size

    def __iter__(self) -> Iterator[Tuple[int, Batch]]:
        step = 0
        for start in range(0, len(self._interactions), self._batch_size):
            chunk = self._interactions[start : start + self._batch_size]
            batch = [
                Interaction(i.source, i.target, step, i.lifetime) for i in chunk
            ]
            yield (step, batch)
            step += 1

    def __len__(self) -> int:
        return -(-len(self._interactions) // self._batch_size)


class _LifetimeAssignedStream(InteractionStream):
    """Lazily applies a lifetime policy to an upstream stream."""

    def __init__(self, upstream: InteractionStream, policy: LifetimePolicy) -> None:
        self._upstream = upstream
        self._policy = policy

    def __iter__(self) -> Iterator[Tuple[int, Batch]]:
        for t, batch in self._upstream:
            assigned = [
                i if i.lifetime is not None else self._policy.assign(i)
                for i in batch
            ]
            yield (t, assigned)


class _TruncatedStream(InteractionStream):
    """Yields at most ``max_steps`` batches from an upstream stream."""

    def __init__(self, upstream: InteractionStream, max_steps: int) -> None:
        if max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {max_steps}")
        self._upstream = upstream
        self._max_steps = max_steps

    def __iter__(self) -> Iterator[Tuple[int, Batch]]:
        for index, item in enumerate(self._upstream):
            if index >= self._max_steps:
                return
            yield item


def group_by_lifetime(batch: Iterable[Interaction]) -> Dict[Optional[int], Batch]:
    """Partition a batch by the lifetime stamped on each row.

    For rows stamped at the step's time these are the paper's ``E_t^(l)``
    groups (``E_t = union of E_t^(l)``); infinite lifetimes map to key
    ``None``.  BASICREDUCTION and HISTAPPROX group a batch's expiry column
    instead, which also places a row stamped before its step by the
    lifetime it has left.
    """
    groups: Dict[Optional[int], Batch] = {}
    for interaction in batch:
        groups.setdefault(interaction.lifetime, []).append(interaction)
    return groups
