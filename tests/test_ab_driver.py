"""Unit tests for the same-box A/B driver's pairing and summary logic.

Nothing here runs the benchmark: the driver's pure functions are fed
hand-written run outputs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("ab", REPO_ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def run_output(digest, calls, **metrics):
    result = {
        "correct": True,
        "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()
        },
    }
    return "\n".join(
        [
            "perfbench workload=sieve-bulk seed=1",
            f"digest {digest} oracle_calls={calls}",
            "metric events_per_s 1.0 1/s",
            json.dumps(result),
        ]
    )


class TestSchedule:
    def test_first_side_alternates_starting_with_base(self):
        orders = [order for _, order in ab.schedule(4, [7])]
        assert orders == [
            (ab.BASE, ab.HEAD),
            (ab.HEAD, ab.BASE),
            (ab.BASE, ab.HEAD),
            (ab.HEAD, ab.BASE),
        ]

    def test_both_sides_of_a_pair_share_its_seed_and_seeds_cycle(self):
        assert [seed for seed, _ in ab.schedule(5, [3, 4])] == [3, 4, 3, 4, 3]

    def test_each_side_goes_first_equally_often_on_even_pairs(self):
        firsts = [order[0] for _, order in ab.schedule(10, [1])]
        assert firsts.count(ab.BASE) == firsts.count(ab.HEAD) == 5

    @pytest.mark.parametrize("pairs, seeds", [(0, [1]), (3, [])])
    def test_rejects_empty_plans(self, pairs, seeds):
        with pytest.raises(ValueError):
            ab.schedule(pairs, seeds)


class TestParseAndSummarize:
    def test_parse_run_reads_digest_calls_and_metrics(self):
        parsed = ab.parse_run(run_output("abc", 12, events_per_s=5.0, setup_s=2.0))
        assert parsed == {
            "digest": "abc",
            "oracle_calls": 12,
            "metrics": {"events_per_s": 5.0, "setup_s": 2.0},
        }

    def test_ratios_are_oriented_so_above_one_means_head_is_better(self):
        assert ab.pair_ratio(10.0, 12.0, "higher") == pytest.approx(1.2)
        assert ab.pair_ratio(2.0, 1.0, "lower") == pytest.approx(2.0)

    def test_summary_counts_wins_with_ties_for_neither(self):
        declared = [
            {"name": "events_per_s", "better": "higher"},
            {"name": "oracle_calls", "better": "lower"},
        ]
        base = [100.0, 110.0, 90.0, 100.0]
        head = [120.0, 100.0, 99.0, 130.0]
        runs = [
            (
                ab.parse_run(run_output("d", 5, events_per_s=b, oracle_calls=5.0)),
                ab.parse_run(run_output("d", 5, events_per_s=h, oracle_calls=5.0)),
            )
            for b, h in zip(base, head)
        ]
        rows = {row["name"]: row for row in ab.summarize(runs, declared)}
        speed = rows["events_per_s"]
        assert (speed["wins"], speed["pairs"]) == (3, 4)
        assert speed["median_ratio"] == pytest.approx((1.1 + 1.2) / 2)
        assert rows["oracle_calls"]["wins"] == 0  # every pair tied

    def test_mismatched_digest_or_calls_are_reported_by_pair(self):
        same = ab.parse_run(run_output("d", 5, events_per_s=1.0))
        other_digest = ab.parse_run(run_output("e", 5, events_per_s=1.0))
        other_calls = ab.parse_run(run_output("d", 6, events_per_s=1.0))
        runs = [(same, same), (same, other_digest), (same, other_calls)]
        assert ab.mismatches(runs) == [1, 2]
