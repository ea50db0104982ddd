"""The public facade: ``open_tracker``, the ``Semantics`` enum, errors.

``repro.api`` (re-exported from the bare ``repro`` package) is the one
surface covered by the compatibility promise, so these tests pin its
routing: algorithm + semantics names resolve to correctly configured
trackers, the weighted path injects a ``weighted_sum`` oracle,
inconsistent combinations fail fast with the facade's own exception
types, and the exception hierarchy keeps its dual stdlib parentage so
pre-hierarchy ``except ValueError`` callers never break.
"""

import pytest

import repro
from repro import Semantics, open_tracker
from repro.api import InfluenceTracker, Solution
from repro.errors import (
    ConfigError,
    DegradedExecutionError,
    PersistenceError,
    ReproError,
    SemanticsError,
)
from repro.kernels.folds import FOLD_NAMES


class TestOpenTracker:
    def test_default_is_hist_approx_under_counts(self):
        tracker = open_tracker()
        assert isinstance(tracker, InfluenceTracker)
        assert tracker.oracle.semantics == "count"
        assert type(tracker.algorithm).__name__ == "HistApprox"

    def test_step_returns_solutions(self):
        tracker = open_tracker("hist-approx", k=2, epsilon=0.2)
        solution = tracker.step(0, [("a", "b"), ("a", "c")])
        assert isinstance(solution, Solution)
        assert "a" in solution.nodes

    def test_enum_members_cover_the_fold_registry_exactly(self):
        assert sorted(member.value for member in Semantics) == list(FOLD_NAMES)

    def test_enum_and_string_spell_the_same_semantics(self):
        via_enum = open_tracker("trend", k=2, semantics=Semantics.TIME_DECAY)
        via_name = open_tracker("trend", k=2, semantics="time_decay")
        assert via_enum.oracle.fold == via_name.oracle.fold

    def test_semantics_params_parameterize_a_named_fold(self):
        tracker = open_tracker(
            "decayed-centrality",
            k=3,
            semantics=(Semantics.HOP_DISCOUNT.value, {"alpha": 0.8}),
        )
        assert tracker.oracle.fold.spec() == ("hop_discount", {"alpha": 0.8})

    def test_unknown_semantics_fail_fast_at_the_facade(self):
        with pytest.raises(SemanticsError, match="unknown influence semantics"):
            open_tracker(semantics="pagerank")

    def test_unknown_algorithm_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            open_tracker("simulated-annealing")

    @pytest.mark.parametrize("workers", ["2", 0, -3, True, 1.5])
    @pytest.mark.parametrize(
        "entry",
        [
            open_tracker,
            InfluenceTracker,
            lambda *args, **kwargs: open_tracker(
                *args, semantics=Semantics.WEIGHTED_SUM, **kwargs
            ),
        ],
        ids=["open_tracker", "InfluenceTracker", "open_tracker-weighted"],
    )
    def test_workers_must_be_an_int_of_at_least_one(self, entry, workers):
        with pytest.raises(ConfigError, match="workers") as caught:
            entry("sieve-adn", workers=workers)
        assert repr(workers) in str(caught.value)

    def test_numeric_checks_raise_repro_errors(self):
        """Out of range is a ConfigError; a wrong type is a ReproError
        that is still a TypeError."""
        from repro.datasets.registry import make_interactions

        with pytest.raises(ConfigError, match="^k must be >= 1, got 0$"):
            open_tracker(k=0)
        with pytest.raises(ReproError, match="^k must be an int, got str$") as caught:
            open_tracker(k="3")
        assert isinstance(caught.value, TypeError)
        with pytest.raises(ConfigError, match="^num_events must be >= 1, got 0$"):
            make_interactions("gowalla", 0)


class TestWeightedPath:
    def test_weighted_sum_injects_a_weighted_oracle(self):
        tracker = open_tracker(
            "hist-approx",
            k=2,
            semantics=Semantics.WEIGHTED_SUM,
            weights={"vip": 10.0},
        )
        assert isinstance(tracker.oracle, repro.InfluenceOracle)
        assert tracker.oracle.semantics == "weighted_sum"
        solution = tracker.step(0, [("a", "vip"), ("b", "c")])
        # Reaching the weighted node dominates the plain pair.
        assert "a" in solution.nodes

    def test_default_weight_reaches_the_oracle(self):
        tracker = open_tracker(
            semantics="weighted_sum", weights={}, default_weight=3.0
        )
        solution = tracker.step(0, [("a", "b")])
        assert solution.value == 6.0  # two nodes at weight 3 each

    def test_weights_without_weighted_sum_rejected(self):
        with pytest.raises(ConfigError, match="only meaningful"):
            open_tracker(semantics=Semantics.COUNT, weights={"a": 2.0})
        with pytest.raises(ConfigError, match="only meaningful"):
            open_tracker(weights={"a": 2.0})


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        for exc in (
            ConfigError,
            SemanticsError,
            PersistenceError,
            DegradedExecutionError,
            repro.UnsupportedCheckpointError,
            repro.ConfigTypeError,
        ):
            assert issubclass(exc, ReproError)

    def test_dual_stdlib_parentage_for_compatibility(self):
        """Pre-hierarchy callers caught ValueError/RuntimeError; they must
        keep working against the typed hierarchy."""
        assert issubclass(ConfigError, ValueError)
        assert issubclass(SemanticsError, ConfigError)
        assert issubclass(PersistenceError, ValueError)
        assert issubclass(DegradedExecutionError, RuntimeError)
        assert issubclass(repro.UnsupportedCheckpointError, TypeError)
        assert issubclass(repro.ConfigTypeError, TypeError)

    def test_facade_raises_are_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            open_tracker(semantics="pagerank")
        with pytest.raises(ReproError):
            open_tracker("basic-reduction")  # missing L


class TestRootReExports:
    def test_facade_symbols_on_the_bare_package(self):
        assert repro.open_tracker is open_tracker
        assert repro.Semantics is Semantics
        for name in (
            "open_tracker",
            "Semantics",
            "ReproError",
            "ConfigError",
            "SemanticsError",
            "PersistenceError",
            "DegradedExecutionError",
            "DecayedCentralityTracker",
            "TrendTracker",
            "enable_kernel_metrics",
            "disable_kernel_metrics",
            "metric_names",
            "metrics_registry",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_api_all_is_the_compatibility_surface(self):
        import repro.api

        assert sorted(repro.api.__all__) == [
            "ConfigError",
            "DegradedExecutionError",
            "InfluenceTracker",
            "PersistenceError",
            "ReproError",
            "Semantics",
            "SemanticsError",
            "Solution",
            "disable_kernel_metrics",
            "enable_kernel_metrics",
            "metric_names",
            "metrics_registry",
            "open_tracker",
        ]
