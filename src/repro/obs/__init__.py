"""repro.obs — zero-dependency metrics for the whole stack.

Rank 0 in the layer DAG: this package imports nothing from repro beyond
itself, so every other layer (kernels, influence, parallel, track, api)
may instrument itself freely without creating cycles.  See the
"Observability" section of ARCHITECTURE.md for the layer placement, the
kernel sampling contract, and the catalog of series.
"""

from repro.obs import names
from repro.obs.export import (
    JSON_SCHEMA_VERSION,
    parse_prometheus_text,
    render_json,
    render_prometheus,
    render_summary,
)
from repro.obs.names import CATALOG, MetricSpec
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_registry,
)
from repro.obs.sampling import KernelSampler

__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "JSON_SCHEMA_VERSION",
    "KernelSampler",
    "MetricSpec",
    "MetricsRegistry",
    "metrics_registry",
    "names",
    "parse_prometheus_text",
    "render_json",
    "render_prometheus",
    "render_summary",
]
