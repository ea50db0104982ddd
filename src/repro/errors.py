"""The public exception hierarchy.

Every error the package raises on a *boundary* — configuration the
caller got wrong, an unknown influence semantics, persistence payloads
that cannot round-trip, parallel execution degrading below what the
caller asked for — derives from :class:`ReproError`, so ``except
ReproError`` catches everything this package can throw at an API seam.

Each subclass additionally inherits the builtin exception the same
boundary raised historically (``ValueError`` for an out-of-range value,
``TypeError`` for a wrong type, ``RuntimeError`` for execution state), so
pre-existing callers — and the tests that pin exact message text — keep
working unchanged.  New code should catch the specific subclass.
"""

from __future__ import annotations

from numbers import Real

__all__ = [
    "ConfigError",
    "ConfigTypeError",
    "DegradedExecutionError",
    "PersistenceError",
    "ReproError",
    "SemanticsError",
    "UnsupportedCheckpointError",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_workers",
]


class ReproError(Exception):
    """Base class of every error raised at a repro API boundary."""


class ConfigError(ReproError, ValueError):
    """A constructor or setting received a value outside its contract."""


class ConfigTypeError(ReproError, TypeError):
    """A constructor or setting received a value of the wrong type."""


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


# The numeric checks every public constructor runs on its parameters (a
# budget ``k``, an epsilon in ``(0, 1)``, ...), so misconfiguration fails
# fast with a uniform message.  They live here, next to check_workers,
# because every layer that validates may import this module.


def check_positive_int(value: int, name: str) -> int:
    """Require ``value`` to be an integer >= 1 and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigTypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    return value


def _check_real(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigTypeError(f"{name} must be a number, got {type(value).__name__}")


def check_positive(value: float, name: str) -> float:
    """Require ``value`` to be a real number > 0 and return it as float."""
    _check_real(value, name)
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Require ``value`` to be a real number >= 0 and return it as float."""
    _check_real(value, name)
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return float(value)


def check_fraction(value: float, name: str, *, inclusive: bool = False) -> float:
    """Require ``value`` to lie in ``(0, 1)`` (or ``[0, 1]``) and return it.

    The open interval is the default because the paper's epsilon parameters
    are meaningless at exactly 0 or 1.
    """
    _check_real(value, name)
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {value}")
    elif not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), got {value}")
    return value


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
    """A checkpoint was asked to save something it cannot serialize.

    A ``TypeError`` like the bare one ``save_checkpoint`` raised before:
    the algorithm's *type* is outside what persistence supports
    (SieveADN, BasicReduction, HistApprox), or a node label is not a
    JSON str/int/float.  Raised before any file is written.
    """


class DegradedExecutionError(ReproError, RuntimeError):
    """Parallel/service execution cannot satisfy the caller's contract.

    Raised at the service boundary when an operation is attempted against
    a closed or never-started component; sharded evaluation itself never
    raises this — it degrades to serial and records the fact in the
    health report instead.
    """
