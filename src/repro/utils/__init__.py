"""Small shared utilities: counters and RNG helpers."""

from repro.utils.counters import CallCounter
from repro.utils.rng import make_rng, spawn_rngs

__all__ = [
    "CallCounter",
    "make_rng",
    "spawn_rngs",
]
