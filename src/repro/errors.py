"""The public exception hierarchy.

Every error the package raises on a *boundary* — configuration the
caller got wrong, an unknown influence semantics, persistence payloads
that cannot round-trip, parallel execution degrading below what the
caller asked for — derives from :class:`ReproError`, so ``except
ReproError`` catches everything this package can throw at an API seam.

Each subclass additionally inherits the builtin exception the same
boundary raised historically (``ValueError`` for validation,
``RuntimeError`` for execution state), so pre-existing callers — and the
tests that pin exact message text — keep working unchanged.  New code
should catch the specific subclass.
"""

from __future__ import annotations

__all__ = [
    "ConfigError",
    "DegradedExecutionError",
    "PersistenceError",
    "ReproError",
    "SemanticsError",
    "UnsupportedCheckpointError",
    "check_workers",
]


class ReproError(Exception):
    """Base class of every error raised at a repro API boundary."""


class ConfigError(ReproError, ValueError):
    """A constructor or setting received a value outside its contract."""


def check_workers(workers) -> int:
    """Require an evaluation worker count: an int >= 1, not a bool.

    The one check behind every entry point that takes a worker count
    (the facade, the tracker, the oracle's ``parallel`` int and the
    sharded executor), so they reject the same values with the same
    message.  It lives here because each of those layers may import
    this module.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers must be an int >= 1, got {workers!r}")
    return workers


class SemanticsError(ConfigError):
    """An influence-semantics (fold) name or parameter was not recognized.

    A :class:`ConfigError` subclass: asking for an unknown fold is a
    configuration mistake, but a distinct one worth catching on its own
    — it is the error persistence raises when a checkpoint names a
    semantics this build does not ship.
    """


class PersistenceError(ReproError, ValueError):
    """A checkpoint payload is malformed, unsupported, or inconsistent."""


class UnsupportedCheckpointError(ReproError, TypeError):
    """A checkpoint was asked to save an algorithm it cannot serialize.

    A ``TypeError`` like the bare one ``save_checkpoint`` raised before:
    the algorithm's *type* is outside what persistence supports
    (SieveADN, BasicReduction, HistApprox).  Raised before any file is
    written.
    """


class DegradedExecutionError(ReproError, RuntimeError):
    """Parallel/service execution cannot satisfy the caller's contract.

    Raised at the service boundary when an operation is attempted against
    a closed or never-started component; sharded evaluation itself never
    raises this — it degrades to serial and records the fact in the
    health report instead.
    """
