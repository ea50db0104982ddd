"""Seeded, deterministic fault injection for the sharded executor.

Chaos testing only works if the chaos is *replayable*: the same plan
must fail the same shard every run, or a failing seed cannot be
debugged.  This module provides that plan.  A :class:`FaultPlan` is
parsed from a compact spec string — supplied either programmatically or
via the ``REPRO_FAULTS`` environment variable — and describes exactly
which fault fires where:

``shard=3``
    the executor's 3rd thread shard raises :class:`FaultInjected`.
``seed=7``
    plan identity for test parametrisation (recorded, not consumed).

Entries are ``;``-separated; one entry may list several ordinals with
``,`` (``shard=1,4``).  Ordinals are 1-based.  Shard ordinals count
every shard the executor submits, in submission order, so a plan fails
the same shards on every run.

Production code pays one branch per shard submission: the hook is a
no-op when no plan is active.
"""

from __future__ import annotations

import os
from typing import Optional, Set

from repro.errors import ConfigError

__all__ = ["FAULTS_ENV", "FaultInjected", "FaultPlan"]

#: Environment variable holding a fault spec ("" / unset = no faults).
FAULTS_ENV = "REPRO_FAULTS"


class FaultInjected(RuntimeError):
    """Raised on a thread shard when the plan fails it."""


def _ordinal(token: str, entry: str) -> int:
    if not token.isdigit() or int(token) < 1:
        raise ConfigError(f"bad fault ordinal {token!r} in {entry!r}")
    return int(token)


class FaultPlan:
    """A deterministic schedule of injected faults.

    Instances are mutated only through :meth:`next_shard_fails` (the
    shard counter); the schedule itself is immutable after parsing, so the
    same plan object can drive a scenario and then be inspected.
    """

    def __init__(self) -> None:
        self.shard_failures: Set[int] = set()
        self.seed: Optional[int] = None
        self.spec: str = ""
        self._shards_seen = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (see module docstring for the grammar).

        A malformed spec raises :class:`~repro.errors.ConfigError`.
        """
        plan = cls()
        plan.spec = spec
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            name, _, rhs = entry.partition("=")
            name = name.strip()
            tokens = [t.strip() for t in rhs.split(",") if t.strip()]
            if name == "seed":
                try:
                    plan.seed = int(rhs)
                except ValueError:
                    raise ConfigError(
                        f"bad fault seed {rhs.strip()!r} in {entry!r}"
                    ) from None
            elif name == "shard":
                plan.shard_failures.update(_ordinal(t, entry) for t in tokens)
            else:
                raise ConfigError(f"unknown fault kind {name!r} in {entry!r}")
        return plan

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """Plan from ``REPRO_FAULTS``, or None when unset/empty."""
        spec = os.environ.get(FAULTS_ENV, "").strip()
        if not spec:
            return None
        try:
            return cls.parse(spec)
        except ConfigError as exc:
            raise ConfigError(f"{FAULTS_ENV}: {exc}") from None

    def next_shard_fails(self) -> bool:
        """Advance the shard counter; True when this shard must raise."""
        self._shards_seen += 1
        return self._shards_seen in self.shard_failures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec!r})"
