"""A tour of the repro.obs metrics layer through the public facade.

What this demonstrates
----------------------
Every layer of the library reports into one process-local registry —
stdlib-only, label-free, pre-registered from a constant catalog — and
the facade exposes the three knobs an operator needs:

* ``metrics_registry()`` — the process-default
  :class:`~repro.obs.registry.MetricsRegistry`; everything the library
  records lands here, the executor's shard threads included.
* ``enable_kernel_metrics(every=N)`` — turn on the traversal kernel's
  *sampled* sweep hook: 1 in N sweeps is recorded and counter totals are
  rescaled by N, so the exported numbers stay unbiased while the hot
  loop pays (nearly) nothing.  Disabled, the hook is a single branch.
* ``metric_names`` — the constant catalog, so dashboards never spell a
  series name by hand.

The same snapshot renders three ways: a Prometheus text exposition (for
a scrape endpoint), a schema-versioned JSON dict (for files), and the
human summary table the CLI prints after ``--metrics``.

Run:
    python examples/metrics_tour.py

Expected output: a short tracking run, then non-zero kernel sweep and
oracle memo series rendered as a summary table, a few Prometheus
exposition lines, and the JSON schema version.
"""

import random

from repro import (
    GeometricLifetime,
    disable_kernel_metrics,
    enable_kernel_metrics,
    metric_names,
    metrics_registry,
    open_tracker,
)


def make_batches(num_nodes=60, steps=40, per_step=6, seed=11):
    rng = random.Random(seed)
    batches = []
    for t in range(steps):
        batch = []
        for _ in range(per_step):
            u, v = rng.sample(range(num_nodes), 2)
            batch.append((f"n{u}", f"n{v}"))
        batches.append((t, batch))
    return batches


def main() -> int:
    registry = metrics_registry()

    # Sample 1 in 4 kernel sweeps; totals are rescaled so they remain
    # unbiased estimates of the true sweep volume.
    enable_kernel_metrics(every=4)
    tracker = open_tracker(
        "hist-approx",
        k=5,
        epsilon=0.25,
        lifetime_policy=GeometricLifetime(p=0.02, max_lifetime=120, seed=5),
    )
    solution = None
    for t, batch in make_batches():
        solution = tracker.step(t, batch)
    disable_kernel_metrics()

    assert solution is not None
    print(f"tracked {len(make_batches())} batches; "
          f"top-5 = {', '.join(str(n) for n in solution.nodes)}\n")

    # 1. The operator's table: nonzero series only.
    print(registry.render_summary())

    # 2. Series lookups by catalog constant — never a spelled-out name.
    sweeps = registry.counter(metric_names.KERNEL_SWEEPS_TOTAL)
    hits = registry.counter(metric_names.ORACLE_MEMO_HITS_TOTAL)
    misses = registry.counter(metric_names.ORACLE_MEMO_MISSES_TOTAL)
    print(f"\nkernel sweeps (sampled estimate): {sweeps.value:.0f}")
    total = hits.value + misses.value
    if total:
        print(f"oracle memo hit rate: {hits.value / total:.1%}")

    # 3. Prometheus text exposition, ready for a /metrics endpoint.
    exposition = registry.render_prometheus()
    kernel_lines = [
        line
        for line in exposition.splitlines()
        if line.startswith(f"# TYPE {metric_names.KERNEL_SWEEPS_TOTAL}")
        or line.startswith(f"{metric_names.KERNEL_SWEEPS_TOTAL} ")
    ]
    print("\nprometheus exposition (excerpt):")
    for line in kernel_lines:
        print(f"  {line}")

    # 4. The JSON snapshot is schema-versioned for file consumers.
    snapshot = registry.render_json()
    print(f"\njson export: schema_version={snapshot['schema_version']}, "
          f"{len(snapshot['counters'])} counters, "
          f"{len(snapshot['histograms'])} histograms")

    # 5. Backend dispatch is observable too: the kernels record which
    # traversal backend resolved (0 = python, 1 = native/numba) and the
    # one-time JIT compile cost where the native backend is in play.
    backend_gauge = registry.gauge(metric_names.KERNEL_BACKEND)
    compile_gauge = registry.gauge(metric_names.KERNEL_NATIVE_COMPILE_SECONDS)
    backend = "native" if backend_gauge.value == 1.0 else "python"
    print(f"\nkernel backend: {backend} "
          f"(native compile: {compile_gauge.value:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
