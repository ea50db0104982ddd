"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Stdlib-only (the library's numpy dependency is not needed here) and
deliberately label-free: every series is one pre-registered constant name
from :mod:`repro.obs.names`, so the whole exposition surface is known at
import time and a lookup by constant can never miss.  One
:class:`threading.Lock` per registry serializes every mutation — metrics
are written from the event loop, the ingest writer thread and the
dispatch path, and a lost increment would quietly corrupt the very
counters the chaos suite asserts on.  The lock is taken once per
*recorded* sample, never inside kernel inner loops (the kernel's sampled
hook is the only sanctioned instrumentation point there; see RPL501).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.names import CATALOG, MetricSpec

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_registry",
]


class Counter:
    """Monotone float counter (``_total`` series)."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help_text
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-set value (current queue depth, epoch, lag, ...)."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help_text
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative semantics.

    ``buckets`` are ascending upper edges; the implicit ``+Inf`` bucket
    catches everything past the last edge.  :meth:`quantile` answers the
    smallest bucket upper edge whose cumulative count fraction reaches
    ``q`` — deterministic, resolution-bounded by the ladder, and pinned
    against a numpy reference on random samples in the exporter tests.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Tuple[float, ...],
        lock: threading.Lock,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs ascending buckets")
        self.name = name
        self.help = help_text
        self.buckets = tuple(float(edge) for edge in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        slot = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                slot = i
                break
        with self._lock:
            self.counts[slot] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Smallest bucket edge covering fraction ``q`` (0.0 when empty).

        Observations past the last finite edge resolve to ``inf`` — the
        ladder genuinely cannot say more than "bigger than every edge".
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return 0.0
        need = q * total
        cumulative = 0
        for edge, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            if cumulative >= need:
                return edge
        return float("inf")

    def percentiles(self) -> Dict[str, float]:
        """The CLI summary's ``p50`` / ``p95`` / ``p99`` triple."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """All of one process's metric instruments, pre-registered by name.

    Construction registers the full :data:`~repro.obs.names.CATALOG`, so
    ``registry.counter(SOME_CONSTANT)`` always resolves and exporters can
    emit type/help text for series that never received a sample.  Looking
    up an unregistered name raises — instrumentation must go through the
    catalog (RPL501 enforces the constant-name half of that contract).
    """

    def __init__(self, catalog: Iterable[MetricSpec] = CATALOG) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        for spec in catalog:
            self.register(spec)

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, spec: MetricSpec) -> None:
        """Register one catalog row (idempotent for identical respecs)."""
        if spec.kind == "counter":
            self._counters[spec.name] = Counter(spec.name, spec.help, self._lock)
        elif spec.kind == "gauge":
            self._gauges[spec.name] = Gauge(spec.name, spec.help, self._lock)
        elif spec.kind == "histogram":
            if spec.buckets is None:
                raise ValueError(f"histogram {spec.name} needs buckets")
            self._histograms[spec.name] = Histogram(
                spec.name, spec.help, spec.buckets, self._lock
            )
        else:
            raise ValueError(f"unknown metric kind {spec.kind!r} for {spec.name}")

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            raise KeyError(
                f"counter {name!r} is not in the metric catalog "
                "(repro/obs/names.py)"
            ) from None

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            raise KeyError(
                f"gauge {name!r} is not in the metric catalog "
                "(repro/obs/names.py)"
            ) from None

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            raise KeyError(
                f"histogram {name!r} is not in the metric catalog "
                "(repro/obs/names.py)"
            ) from None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, float]:
        """Current counter values (all of them, zero or not), by name."""
        with self._lock:
            return {name: c.value for name, c in sorted(self._counters.items())}

    def reset(self) -> None:
        """Zero every instrument (tests; never called by the library)."""
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0.0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for histogram in self._histograms.values():
                histogram.counts = [0] * (len(histogram.buckets) + 1)
                histogram.sum = 0.0
                histogram.count = 0

    # ------------------------------------------------------------------
    # Export (delegates to repro.obs.export; imported lazily to keep the
    # module graph a tree)
    # ------------------------------------------------------------------
    def counters(self) -> List[Counter]:
        return [self._counters[name] for name in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[name] for name in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[name] for name in sorted(self._histograms)]

    def render_prometheus(self) -> str:
        from repro.obs.export import render_prometheus

        return render_prometheus(self)

    def render_json(self) -> Dict[str, object]:
        from repro.obs.export import render_json

        return render_json(self)

    def render_summary(self) -> str:
        from repro.obs.export import render_summary

        return render_summary(self)


#: The process-default registry, created on first use.  Library
#: instrumentation records here.
_DEFAULT: Optional[MetricsRegistry] = None


def metrics_registry() -> MetricsRegistry:
    """The process-local default :class:`MetricsRegistry` (lazy singleton)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricsRegistry()
    return _DEFAULT
