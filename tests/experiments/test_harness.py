"""Integration tests for the side-by-side tracking harness."""

import pytest

from repro.baselines.greedy_recompute import GreedyRecompute
from repro.core.hist_approx import HistApprox
from repro.errors import ConfigError
from repro.experiments.harness import run_tracking
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import ConstantLifetime
from repro.tdn.stream import MemoryStream


def small_stream():
    events = []
    for t in range(10):
        events.append(Interaction("hub", f"x{t}", t))
        if t % 2 == 0:
            events.append(Interaction(f"s{t}", "hub", t))
    return MemoryStream(events)


def factories(k=2):
    return {
        "hist": lambda graph: HistApprox(k, 0.2, graph),
        "greedy": lambda graph: GreedyRecompute(k, graph),
    }


class TestRunTracking:
    def test_series_recorded_per_algorithm(self):
        report = run_tracking(
            small_stream(), factories(), lifetime_policy=ConstantLifetime(4)
        )
        assert report.names() == ["hist", "greedy"]
        assert report.num_steps == 10
        assert len(report["hist"].values) == 10

    def test_query_interval_still_records_last_step(self):
        report = run_tracking(
            small_stream(),
            factories(),
            lifetime_policy=ConstantLifetime(4),
            query_interval=4,
        )
        times = report["hist"].times
        assert times[0] == 0
        assert times[-1] == 9  # final step always recorded
        assert len(times) == 4  # steps 0, 4, 8, 9

    def test_shared_lifetimes_across_algorithms(self):
        """Both algorithms must observe identical streams: with a shared
        one-shot policy draw, hist and greedy values track closely."""
        report = run_tracking(
            small_stream(), factories(k=1), lifetime_policy=ConstantLifetime(3)
        )
        # Greedy is the quality ceiling; hist can never exceed it by more
        # than floating error on a shared stream.
        for hist_value, greedy_value in zip(
            report["hist"].values, report["greedy"].values
        ):
            assert hist_value <= greedy_value + 1e-9

    def test_oracle_counters_are_independent(self):
        report = run_tracking(
            small_stream(), factories(), lifetime_policy=ConstantLifetime(4)
        )
        assert report["hist"].total_calls > 0
        assert report["greedy"].total_calls > 0

    def test_max_steps_truncates(self):
        report = run_tracking(
            small_stream(),
            factories(),
            lifetime_policy=ConstantLifetime(4),
            max_steps=3,
        )
        assert report.num_steps == 3

    def test_invalid_query_interval(self):
        with pytest.raises(ConfigError, match="query_interval must be >= 1, got 0"):
            run_tracking(small_stream(), factories(), query_interval=0)

    def test_final_nodes_exposed(self):
        report = run_tracking(
            small_stream(), factories(k=1), lifetime_policy=ConstantLifetime(4)
        )
        # In the final window the best single seed is an s-node that reaches
        # the hub (one extra hop beats seeding the hub itself).
        assert report.final_nodes["greedy"] in (("s6",), ("s8",))

    def test_wall_clock_accumulates(self):
        report = run_tracking(
            small_stream(), factories(), lifetime_policy=ConstantLifetime(4)
        )
        walls = report["hist"].wall_seconds
        assert all(b >= a for a, b in zip(walls, walls[1:]))
        assert report["hist"].throughput > 0
