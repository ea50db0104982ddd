"""Unit tests for counters, RNG helpers, and validation."""

import random

import pytest

from repro.errors import (
    ConfigError,
    ConfigTypeError,
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)
from repro.utils.counters import CallCounter
from repro.utils.rng import make_rng, spawn_rngs


class TestCallCounter:
    def test_increment_and_total(self):
        counter = CallCounter()
        counter.increment()
        counter.increment(4)
        assert counter.total == 5

    def test_snapshot_delta(self):
        counter = CallCounter()
        counter.increment(3)
        snap = counter.snapshot()
        counter.increment(2)
        assert counter.delta_since(snap) == 2

    def test_reset(self):
        counter = CallCounter()
        counter.increment(9)
        counter.reset()
        assert counter.total == 0


class TestRng:
    def test_make_rng_from_seed(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_make_rng_passthrough(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_make_rng_fresh(self):
        assert isinstance(make_rng(None), random.Random)

    def test_spawn_rngs_independent_and_reproducible(self):
        a1, a2 = spawn_rngs(5, 2)
        b1, b2 = spawn_rngs(5, 2)
        assert a1.random() == b1.random()
        assert a2.random() == b2.random()
        assert spawn_rngs(5, 2)[0].random() != spawn_rngs(5, 2)[1].random()

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestValidation:
    """Out-of-range values raise ConfigError (a ValueError), wrong types
    ConfigTypeError (a TypeError); both are ReproErrors."""

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ConfigError):
            check_positive_int(0, "x")
        with pytest.raises(ConfigTypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(ConfigTypeError):
            check_positive_int(True, "x")

    def test_check_positive(self):
        assert check_positive(0.5, "x") == 0.5
        with pytest.raises(ConfigError):
            check_positive(0, "x")
        with pytest.raises(ConfigTypeError):
            check_positive("1", "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0.0
        with pytest.raises(ConfigError):
            check_non_negative(-0.1, "x")
        with pytest.raises(ConfigTypeError):
            check_non_negative(None, "x")

    def test_check_fraction(self):
        assert check_fraction(0.5, "x") == 0.5
        with pytest.raises(ConfigError):
            check_fraction(0.0, "x")
        with pytest.raises(ConfigError):
            check_fraction(1.0, "x")
        assert check_fraction(0.0, "x", inclusive=True) == 0.0
        assert check_fraction(1.0, "x", inclusive=True) == 1.0
        with pytest.raises(ConfigError):
            check_fraction(1.1, "x", inclusive=True)
        with pytest.raises(ConfigTypeError):
            check_fraction(False, "x")
