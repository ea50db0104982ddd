"""Fixture snippets proving every repro-lint code fires — and suppresses.

Each case is a minimal source snippet placed at a path that puts it in
the relevant rule's scope.  The shared ``assert_fires`` helper also
re-lints the snippet with a pragma injected on the finding line and
asserts the finding disappears, so the suppression machinery is
exercised for *every* code, not just the ones we remembered.
"""

from __future__ import annotations

import textwrap
from typing import List

import pytest

from repro.lint import lint_source
from repro.lint.findings import CODES, Finding


def _lint(source: str, path: str) -> List[Finding]:
    return lint_source(textwrap.dedent(source), path)


def assert_fires(source: str, path: str, code: str) -> List[Finding]:
    """Snippet produces ``code``; the same snippet pragma'd does not."""
    source = textwrap.dedent(source)
    findings = [f for f in lint_source(source, path) if f.code == code]
    assert findings, f"{code} did not fire"
    # Inject a disable-next pragma above every finding line; every
    # occurrence of the code must vanish.
    lines = source.splitlines()
    for finding in sorted(findings, key=lambda f: -f.line):
        indent = lines[finding.line - 1][
            : len(lines[finding.line - 1]) - len(lines[finding.line - 1].lstrip())
        ]
        lines.insert(finding.line - 1, f"{indent}# repro-lint: disable-next={code}")
    suppressed = lint_source("\n".join(lines) + "\n", path)
    assert not [f for f in suppressed if f.code == code], (
        f"disable-next pragma did not suppress {code}"
    )
    return findings


# ----------------------------------------------------------------------
# RPL1xx — layer contracts
# ----------------------------------------------------------------------
def test_rpl101_upward_module_import():
    findings = assert_fires(
        "from repro.parallel.executor import ShardedOracleExecutor\n",
        "src/repro/influence/fixture.py",
        "RPL101",
    )
    assert "upward" in findings[0].message


def test_rpl101_cross_layer_import():
    findings = assert_fires(
        "import repro.submodular.sieve\n",
        "src/repro/influence/fixture.py",
        "RPL101",
    )
    assert "cross-layer" in findings[0].message


def test_rpl101_downward_import_allowed():
    assert not _lint(
        "from repro.kernels import TraversalKernel\n",
        "src/repro/parallel/fixture.py",
    )


def test_rpl101_intra_package_import_allowed():
    assert not _lint(
        "from repro.influence.oracle import InfluenceOracle\n",
        "src/repro/influence/fixture.py",
    )


def test_rpl102_lazy_upward_import():
    assert_fires(
        """
        def build():
            from repro.parallel.executor import ShardedOracleExecutor

            return ShardedOracleExecutor(2)
        """,
        "src/repro/influence/fixture.py",
        "RPL102",
    )


def test_rpl104_unplaced_module():
    assert_fires(
        "import repro.widgets\n",
        "src/repro/core/fixture.py",
        "RPL104",
    )


def test_rpl105_internal_import_from_example():
    findings = assert_fires(
        "from repro.tdn.graph import TDNGraph\n",
        "examples/fixture.py",
        "RPL105",
    )
    assert "facade-only" in findings[0].message


def test_rpl105_internal_import_from_integration_test():
    assert_fires(
        "import repro.parallel.executor\n",
        "tests/integration/fixture.py",
        "RPL105",
    )


def test_rpl105_facade_imports_allowed():
    assert not _lint(
        """
        import repro
        from repro import open_tracker
        from repro.api import Semantics
        from repro.errors import SemanticsError
        """,
        "examples/fixture.py",
    )


def test_rpl105_scope_is_path_keyed():
    # The same internal import outside the facade-only trees is governed
    # by the layer DAG, not RPL105.
    findings = _lint(
        "from repro.tdn.graph import TDNGraph\n",
        "tests/core/fixture.py",
    )
    assert not [f for f in findings if f.code == "RPL105"]


def test_rpl103_traversal_loop_outside_kernel():
    source = """
    def sweep(indptr, indices, n):
        out = []
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                out.append(indices[j])
        return out
    """
    findings = assert_fires(source, "src/repro/tdn/fixture.py", "RPL103")
    # Outer loop owns the finding; the inner loop is not double-counted.
    assert len(findings) == 1


def test_rpl103_exempt_in_owner_file():
    source = """
    def sweep(indptr, indices, n):
        out = []
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                out.append(indices[j])
        return out
    """
    assert not _lint(source, "src/repro/kernels/traversal.py")


def test_rpl103_exempt_in_native_twin():
    # The jitted twin owns traversal shapes too — RPL106 polices it.
    source = """
    from numba import njit


    @njit(nogil=True, cache=True)
    def sweep(indptr, indices, visit, stamp, n):
        count = 0
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                if visit[indices[j]] != stamp:
                    count += 1
        return count
    """
    assert not _lint(source, "src/repro/kernels/native.py")


def test_rpl106_undecorated_function_in_native_module():
    findings = assert_fires(
        """
        def helper(values):
            return values[0]
        """,
        "src/repro/kernels/native.py",
        "RPL106",
    )
    assert "not @njit-decorated" in findings[0].message


def test_rpl106_dict_in_native_module():
    assert_fires(
        """
        from numba import njit


        @njit(nogil=True)
        def bad(frontier):
            seen = {}
            return seen
        """,
        "src/repro/kernels/native.py",
        "RPL106",
    )


def test_rpl106_fstring_in_native_module():
    assert_fires(
        """
        from numba import njit


        @njit(nogil=True)
        def bad(count):
            label = f"reached {count}"
            return label
        """,
        "src/repro/kernels/native.py",
        "RPL106",
    )


def test_rpl106_str_builtin_in_native_module():
    assert_fires(
        """
        from numba import njit


        @njit(nogil=True)
        def bad(count):
            return str(count)
        """,
        "src/repro/kernels/native.py",
        "RPL106",
    )


def test_rpl106_closure_in_native_module():
    assert_fires(
        """
        from numba import njit


        @njit(nogil=True)
        def outer(values):
            def successor(i):
                return values[i]

            return successor(0)
        """,
        "src/repro/kernels/native.py",
        "RPL106",
    )


def test_rpl106_foreign_import_in_native_module():
    findings = assert_fires(
        """
        import os
        """,
        "src/repro/kernels/native.py",
        "RPL106",
    )
    assert "import surface" in findings[0].message


def test_rpl106_native_import_outside_dispatch():
    findings = assert_fires(
        """
        from repro.kernels import native
        """,
        "src/repro/tdn/fixture.py",
        "RPL106",
    )
    assert "dispatch layer" in findings[0].message


def test_rpl106_direct_native_import_outside_dispatch():
    assert_fires(
        """
        import repro.kernels.native
        """,
        "src/repro/tdn/fixture.py",
        "RPL106",
    )


def test_rpl106_dispatch_layer_may_import_native():
    assert not _lint(
        """
        from repro.kernels import native
        """,
        "src/repro/kernels/backend.py",
    )


def test_rpl106_clean_jitted_function_passes():
    assert not _lint(
        """
        import numpy as np
        from numba import njit


        @njit(nogil=True, cache=True)
        def fixpoint(indptr, indices, frontier, visit, stamp):
            count = frontier.shape[0]
            head = 0
            while head < count:
                node = frontier[head]
                head += 1
                for slot in range(indptr[node], indptr[node + 1]):
                    succ = indices[slot]
                    if visit[succ] != stamp:
                        visit[succ] = np.int64(stamp)
                        count += 1
            return count
        """,
        "src/repro/kernels/native.py",
    )


# ----------------------------------------------------------------------
# RPL3xx — concurrency hazards
# ----------------------------------------------------------------------
def test_rpl301_time_sleep_in_async():
    assert_fires(
        """
        import time


        async def poll():
            time.sleep(1.0)
        """,
        "src/repro/parallel/fixture.py",
        "RPL301",
    )


def test_rpl301_blocking_shutdown_in_async():
    assert_fires(
        """
        async def close(pool):
            pool.shutdown(wait=True)
        """,
        "src/repro/parallel/fixture.py",
        "RPL301",
    )


def test_rpl301_awaited_join_is_fine():
    assert not _lint(
        """
        async def drain(queue):
            await queue.join()
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl301_sync_function_not_flagged():
    assert not _lint(
        """
        import time


        def poll():
            time.sleep(1.0)
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl301_nested_def_not_flagged():
    assert not _lint(
        """
        import time


        async def outer():
            def helper():
                time.sleep(1.0)

            return helper
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl304_swallowed_broad_except():
    assert_fires(
        """
        def teardown(queue):
            try:
                queue.close()
            except Exception:
                pass
        """,
        "src/repro/parallel/fixture.py",
        "RPL304",
    )


def test_rpl304_bare_except():
    assert_fires(
        """
        def teardown(queue):
            try:
                queue.close()
            except:
                queue = None
        """,
        "src/repro/parallel/fixture.py",
        "RPL304",
    )


def test_rpl304_reraise_passes():
    assert not _lint(
        """
        def forward(queue):
            try:
                queue.close()
            except Exception:
                queue.cancel_join_thread()
                raise
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl304_degradation_record_passes():
    assert not _lint(
        """
        def record_on_failure(executor, queue):
            try:
                queue.close()
            except Exception:
                executor._note_incident(RuntimeError("queue close failed"))
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl304_other_recording_names_fire():
    assert_fires(
        """
        def degrade_on_failure(ladder, reason, queue):
            try:
                queue.close()
            except Exception:
                ladder.degrade(reason, "queue close failed")
        """,
        "src/repro/parallel/fixture.py",
        "RPL304",
    )


def test_rpl304_used_exception_passes():
    assert not _lint(
        """
        def record(self, queue):
            try:
                queue.close()
            except BaseException as exc:
                self._failure = exc
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl304_narrow_type_passes():
    assert not _lint(
        """
        def drain(queue):
            try:
                queue.get_nowait()
            except (OSError, ValueError):
                pass
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl304_out_of_scope_path_not_flagged():
    assert not _lint(
        """
        def teardown(queue):
            try:
                queue.close()
            except Exception:
                pass
        """,
        "src/repro/core/fixture.py",
    )


# ----------------------------------------------------------------------
# RPL4xx — determinism
# ----------------------------------------------------------------------
def test_rpl401_float_fold_over_set():
    assert_fires(
        """
        def total(weight_of, nodes: set):
            value = 0.0
            for node in nodes:
                value += weight_of(node)
            return value
        """,
        "src/repro/influence/fixture.py",
        "RPL401",
    )


def test_rpl401_sorted_fold_passes():
    assert not _lint(
        """
        def total(weight_of, nodes: set):
            value = 0.0
            for node in sorted(nodes):
                value += weight_of(node)
            return value
        """,
        "src/repro/influence/fixture.py",
    )


def test_rpl401_commutative_sink_passes():
    assert not _lint(
        """
        def union(groups: set, members_of):
            out = set()
            for group in groups:
                out.update(members_of(group))
            return out
        """,
        "src/repro/influence/fixture.py",
    )


def test_rpl401_listcomp_over_set():
    assert_fires(
        """
        def order(nodes: frozenset):
            return [n for n in nodes]
        """,
        "src/repro/influence/fixture.py",
        "RPL401",
    )


def test_rpl401_sum_genexp_over_set_returning_call():
    assert_fires(
        """
        from repro.influence.reachability import reachable_set


        def spread(graph, seeds, weight_of):
            return sum(weight_of(n) for n in reachable_set(graph, seeds, None))
        """,
        "src/repro/influence/fixture.py",
        "RPL401",
    )


@pytest.mark.parametrize("package", ["core", "baselines"])
def test_rpl401_covers_trackers_and_baselines(package):
    assert_fires(
        """
        def order(nodes: frozenset):
            return [n for n in nodes]
        """,
        f"src/repro/{package}/fixture.py",
        "RPL401",
    )


def test_rpl401_out_of_scope_path_not_flagged():
    assert not _lint(
        """
        def order(nodes: frozenset):
            return [n for n in nodes]
        """,
        "src/repro/analysis/fixture.py",
    )


def test_rpl402_numpy_random():
    assert_fires(
        """
        import numpy as np


        def probe():
            return np.random.default_rng(7)
        """,
        "src/repro/tdn/fixture.py",
        "RPL402",
    )


def test_rpl402_import_random():
    assert_fires(
        "import random\n",
        "src/repro/core/fixture.py",
        "RPL402",
    )


def test_rpl402_exempt_in_rng_owner():
    assert not _lint(
        "import random\n",
        "src/repro/utils/rng.py",
    )


# ----------------------------------------------------------------------
# RPL5xx — observability
# ----------------------------------------------------------------------
def test_rpl501_inline_metric_name():
    findings = assert_fires(
        """
        from repro.obs.registry import metrics_registry

        hits = metrics_registry().counter("repro_memo_hits_total")
        """,
        "src/repro/influence/fixture.py",
        "RPL501",
    )
    assert "non-constant metric name" in findings[0].message


def test_rpl501_fstring_metric_name():
    assert_fires(
        """
        from repro.obs.registry import metrics_registry

        def series_for(shard: int):
            return metrics_registry().gauge(f"repro_shard_{shard}_depth")
        """,
        "src/repro/parallel/fixture.py",
        "RPL501",
    )


def test_rpl501_constant_names_pass():
    assert not _lint(
        """
        from repro.obs import names as metric_names
        from repro.obs.registry import metrics_registry

        MY_SERIES = "repro_my_series_total"

        a = metrics_registry().counter(MY_SERIES)
        b = metrics_registry().histogram(metric_names.ORACLE_CONE_SIZE_NODES)
        """,
        "src/repro/influence/fixture.py",
    )


def test_rpl501_runtime_register():
    assert_fires(
        """
        from repro.obs.names import MetricSpec
        from repro.obs.registry import metrics_registry

        def lazy_register():
            spec = MetricSpec("repro_late_total", "counter", "late", None)
            metrics_registry().register(spec)
        """,
        "src/repro/influence/fixture.py",
        "RPL501",
    )


def test_rpl501_instrument_call_in_traversal_loop():
    assert_fires(
        """
        from repro.obs import names as metric_names
        from repro.obs.registry import metrics_registry

        SWEEPS = metrics_registry().counter(metric_names.KERNEL_SWEEPS_TOTAL)

        def sweep(frontiers):
            for frontier in frontiers:
                SWEEPS.inc()
        """,
        "src/repro/kernels/traversal.py",
        "RPL501",
    )


def test_rpl501_sampled_record_hook_allowed_in_traversal_loop():
    assert not _lint(
        """
        def sweep(frontiers, sampler):
            for frontier in frontiers:
                if sampler is not None:
                    sampler.record("reach", 1, len(frontier))
        """,
        "src/repro/kernels/traversal.py",
    )


def test_rpl501_instrument_call_outside_loop_allowed_elsewhere():
    # Other modules may touch instruments inside loops (e.g. the ingest
    # service); only the traversal kernel owner is loop-restricted.
    assert not _lint(
        """
        from repro.obs import names as metric_names
        from repro.obs.registry import metrics_registry

        DEPTH = metrics_registry().gauge(metric_names.INGEST_QUEUE_DEPTH)

        def drain(batches):
            for batch in batches:
                DEPTH.set(len(batch))
        """,
        "src/repro/parallel/fixture.py",
    )


def test_rpl501_exempt_in_obs_owner():
    assert not _lint(
        """
        def counter(self, name):
            return self._instruments[name]

        def register(self, spec):
            self._do_register(spec)

        def lookup(registry, name):
            return registry.counter(name)
        """,
        "src/repro/obs/registry.py",
    )


# ----------------------------------------------------------------------
# Internal + meta
# ----------------------------------------------------------------------
def test_rpl001_unparseable():
    findings = _lint("def broken(:\n", "src/repro/core/fixture.py")
    assert [f.code for f in findings] == ["RPL001"]


def test_same_line_pragma():
    source = 'import random  # repro-lint: disable=RPL402\n'
    assert not _lint(source, "src/repro/core/fixture.py")


@pytest.mark.parametrize("code", sorted(set(CODES) - {"RPL001"}))
def test_every_code_is_exercised(code):
    """Every documented code has a fixture above that proves it fires.

    The per-code tests each call ``assert_fires`` with their code; this
    meta-test just pins the registry so adding a code without a fixture
    fails loudly (the module source must mention the code in a test).
    """
    import pathlib

    module_source = pathlib.Path(__file__).read_text(encoding="utf-8")
    assert f'"{code}"' in module_source or f"'{code}'" in module_source
