"""Exporter contracts: Prometheus round-trip, JSON schema, CLI summary.

``parse_prometheus_text`` is deliberately strict — it accepts exactly
what ``render_prometheus`` emits — so the round-trip test doubles as a
format-regression tripwire.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import names as metric_names
from repro.obs.export import (
    JSON_SCHEMA_VERSION,
    _edges_and_counts,
    parse_prometheus_text,
)
from repro.obs.names import CATALOG
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def populated() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(metric_names.ORACLE_MEMO_HITS_TOTAL).inc(42)
    registry.counter(metric_names.EXECUTOR_DISPATCHES_TOTAL).inc(2)
    registry.gauge(metric_names.INGEST_QUEUE_DEPTH).set(5)
    registry.gauge(metric_names.INGEST_EPOCH_LAG).set(1.5)
    latency = registry.histogram(metric_names.EXECUTOR_SHARD_LATENCY_SECONDS)
    for value in (0.0004, 0.003, 0.003, 0.2, 30.0):
        latency.observe(value)
    return registry


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def test_prometheus_round_trip(populated):
    families = parse_prometheus_text(populated.render_prometheus())
    # Every catalog entry appears, sampled or not, with help and type.
    assert set(families) == {spec.name for spec in CATALOG}
    for spec in CATALOG:
        assert families[spec.name]["type"] == spec.kind
        assert families[spec.name]["help"] == spec.help

    hits = families[metric_names.ORACLE_MEMO_HITS_TOTAL]["samples"]
    assert hits[metric_names.ORACLE_MEMO_HITS_TOTAL] == 42.0
    depth = families[metric_names.INGEST_QUEUE_DEPTH]["samples"]
    assert depth[metric_names.INGEST_QUEUE_DEPTH] == 5.0
    lag = families[metric_names.INGEST_EPOCH_LAG]["samples"]
    assert lag[metric_names.INGEST_EPOCH_LAG] == 1.5


def test_prometheus_histogram_samples(populated):
    families = parse_prometheus_text(populated.render_prometheus())
    family = families[metric_names.EXECUTOR_SHARD_LATENCY_SECONDS]
    samples = family["samples"]
    name = metric_names.EXECUTOR_SHARD_LATENCY_SECONDS
    assert samples[f"{name}_count"] == 5.0
    assert samples[f"{name}_sum"] == pytest.approx(30.2064)
    # Buckets are cumulative and end in the +Inf catch-all.
    edges, counts = _edges_and_counts(family)
    assert edges == sorted(edges)
    assert edges[-1] == float("inf")
    assert counts == sorted(counts)
    assert counts[-1] == 5.0
    assert samples[f'{name}_bucket{{le="+Inf"}}'] == 5.0
    # 30.0 exceeds the last finite edge: only +Inf holds all five.
    assert counts[-2] == 4.0


def test_prometheus_integral_values_have_no_decimal_point(populated):
    text = populated.render_prometheus()
    line = next(
        line
        for line in text.splitlines()
        if line.startswith(f"{metric_names.ORACLE_MEMO_HITS_TOTAL} ")
    )
    assert line.endswith(" 42")


@pytest.mark.parametrize(
    "bad",
    [
        "repro_x 1",  # sample with no preceding # TYPE
        "# TYPE repro_x summary\n",  # unknown family type
        "# COMMENT nope\n",  # unknown comment shape
        "# TYPE repro_x counter\nrepro_x one\n",  # non-numeric value
        "# TYPE repro_x counter\nrepro_x 1\nrepro_x 2\n",  # duplicate series
        '# TYPE repro_x counter\nrepro_x{shard="0"} 1\n',  # foreign label
    ],
)
def test_parser_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_prometheus_text(bad)


# ----------------------------------------------------------------------
# JSON export
# ----------------------------------------------------------------------
def test_json_schema_shape(populated):
    snapshot = populated.render_json()
    assert snapshot["schema_version"] == JSON_SCHEMA_VERSION
    assert set(snapshot) == {
        "schema_version",
        "counters",
        "gauges",
        "histograms",
    }
    assert snapshot["counters"][metric_names.ORACLE_MEMO_HITS_TOTAL] == 42.0
    assert snapshot["gauges"][metric_names.INGEST_QUEUE_DEPTH] == 5.0
    hist = snapshot["histograms"][metric_names.EXECUTOR_SHARD_LATENCY_SECONDS]
    assert set(hist) == {
        "help",
        "buckets",
        "cumulative_counts",
        "sum",
        "count",
        "p50",
        "p95",
        "p99",
    }
    assert hist["count"] == 5
    assert len(hist["cumulative_counts"]) == len(hist["buckets"]) + 1


def test_json_is_serializable_and_stable(populated):
    first = json.dumps(populated.render_json(), sort_keys=True)
    second = json.dumps(populated.render_json(), sort_keys=True)
    assert first == second


# ----------------------------------------------------------------------
# CLI summary
# ----------------------------------------------------------------------
def test_summary_elides_untouched_series(populated):
    summary = populated.render_summary()
    assert metric_names.ORACLE_MEMO_HITS_TOTAL in summary
    assert metric_names.EXECUTOR_SHARD_LATENCY_SECONDS in summary
    # Series that never moved do not clutter the end-of-run table.
    assert metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL not in summary


def test_summary_empty_registry():
    assert "(no samples recorded)" in MetricsRegistry().render_summary()
