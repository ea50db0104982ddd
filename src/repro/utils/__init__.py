"""Small shared utilities: counters, RNG helpers, validation."""

from repro.utils.counters import CallCounter
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)

__all__ = [
    "CallCounter",
    "make_rng",
    "spawn_rngs",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
]
