"""MetricsRegistry behavior: catalog lookups, instruments, resets."""

from __future__ import annotations

import threading

import pytest

from repro.obs import names as metric_names
from repro.obs.names import CATALOG, MetricSpec
from repro.obs.registry import Histogram, MetricsRegistry, metrics_registry


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


def test_catalog_preregistered(registry):
    for spec in CATALOG:
        lookup = getattr(registry, spec.kind)
        instrument = lookup(spec.name)
        assert instrument.name == spec.name
        assert instrument.help == spec.help


def test_unknown_name_raises(registry):
    with pytest.raises(KeyError, match="not in the metric catalog"):
        registry.counter("repro_no_such_series_total")
    with pytest.raises(KeyError, match="not in the metric catalog"):
        registry.gauge("repro_no_such_depth")
    with pytest.raises(KeyError, match="not in the metric catalog"):
        registry.histogram("repro_no_such_seconds")


def test_wrong_kind_lookup_raises(registry):
    # A counter name is not visible through the gauge/histogram tables.
    with pytest.raises(KeyError):
        registry.gauge(metric_names.EXECUTOR_DISPATCHES_TOTAL)
    with pytest.raises(KeyError):
        registry.histogram(metric_names.EXECUTOR_DISPATCHES_TOTAL)


def test_counter_monotone(registry):
    counter = registry.counter(metric_names.EXECUTOR_DISPATCHES_TOTAL)
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)
    assert counter.value == 3.5


def test_gauge_last_write_wins(registry):
    gauge = registry.gauge(metric_names.INGEST_QUEUE_DEPTH)
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3.0


def test_histogram_bucketing(registry):
    hist = Histogram("h", "help", (1.0, 5.0, 10.0), threading.Lock())
    for value in (0.5, 1.0, 2.0, 7.0, 99.0):
        hist.observe(value)
    # 0.5 and 1.0 land in le=1, 2.0 in le=5, 7.0 in le=10, 99.0 in +Inf.
    assert hist.counts == [2, 1, 1, 1]
    assert hist.count == 5
    assert hist.sum == pytest.approx(109.5)


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError, match="ascending"):
        Histogram("h", "help", (5.0, 1.0), threading.Lock())


def test_quantile_edges():
    hist = Histogram("h", "help", (1.0, 5.0, 10.0), threading.Lock())
    assert hist.quantile(0.5) == 0.0  # empty histogram
    for value in (0.5, 0.5, 7.0, 20.0):
        hist.observe(value)
    assert hist.quantile(0.5) == 1.0
    assert hist.quantile(0.75) == 10.0
    assert hist.quantile(1.0) == float("inf")  # past the last finite edge
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_reset(registry):
    registry.counter(metric_names.EXECUTOR_DISPATCHES_TOTAL).inc(5)
    registry.gauge(metric_names.INGEST_QUEUE_DEPTH).set(9)
    registry.histogram(metric_names.ORACLE_CONE_SIZE_NODES).observe(3)
    registry.reset()
    assert all(v == 0.0 for v in registry.counter_values().values())
    assert registry.gauge(metric_names.INGEST_QUEUE_DEPTH).value == 0.0
    hist = registry.histogram(metric_names.ORACLE_CONE_SIZE_NODES)
    assert hist.count == 0 and hist.sum == 0.0


def test_register_unknown_kind_raises(registry):
    with pytest.raises(ValueError, match="unknown metric kind"):
        registry.register(MetricSpec("repro_bad", "summary", "nope", None))
    with pytest.raises(ValueError, match="needs buckets"):
        registry.register(MetricSpec("repro_bad", "histogram", "nope", None))


def test_default_registry_is_a_singleton():
    assert metrics_registry() is metrics_registry()


def test_concurrent_increments_are_not_lost(registry):
    counter = registry.counter(metric_names.EXECUTOR_DISPATCHES_TOTAL)

    def hammer() -> None:
        for _ in range(1_000):
            counter.inc()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 4_000.0
