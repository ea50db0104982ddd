"""Backend dispatch: precedence, degrade-never-error, no-numba parity.

Every test here runs with numba force-blocked (``sys.modules`` poisoned)
so the suite pins the exact behavior a numba-less host sees — including
hosts where numba *is* installed, like the CI native leg: the block makes
the probe fail deterministically either way.  The one warm-up test that
needs a real numba self-skips when it is absent.
"""

import sys
import warnings

import pytest

from repro.kernels import (
    BACKEND_ENV,
    native_available,
    native_compile_seconds,
    reset_backend_state,
    resolve_backend,
)
from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry
from repro.tdn.csr import DeltaCSR
from tests.property.test_kernel_unification import build_stream_graph


@pytest.fixture(autouse=True)
def clean_backend_state(monkeypatch):
    """Fresh probe/warning state and no env override around every test."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    reset_backend_state()
    yield
    reset_backend_state()


def block_numba(monkeypatch):
    """Make the native probe fail exactly as on a host without numba."""
    monkeypatch.setitem(sys.modules, "numba", None)
    monkeypatch.delitem(sys.modules, "repro.kernels.native", raising=False)


# ----------------------------------------------------------------------
# Resolution precedence
# ----------------------------------------------------------------------
def test_explicit_python_needs_no_probe(monkeypatch):
    block_numba(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        assert resolve_backend("python") == "python"


def test_explicit_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("turbo")


def test_explicit_argument_beats_env(monkeypatch):
    block_numba(monkeypatch)
    monkeypatch.setenv(BACKEND_ENV, "native")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The env asks for native (which would warn: unavailable); the
        # explicit python request wins silently.
        assert resolve_backend("python") == "python"


def test_env_python_honored(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "python")
    assert resolve_backend(None) == "python"


def test_unknown_env_value_warns_once_and_serves_auto(monkeypatch):
    block_numba(monkeypatch)
    monkeypatch.setenv(BACKEND_ENV, "turbo")
    with pytest.warns(RuntimeWarning, match=BACKEND_ENV):
        assert resolve_backend(None) == "python"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend(None) == "python"  # warned once, not twice


# ----------------------------------------------------------------------
# Degrade, never error
# ----------------------------------------------------------------------
def test_auto_without_numba_is_silent(monkeypatch):
    block_numba(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend(None) == "python"
        assert resolve_backend("auto") == "python"
    assert not native_available()
    assert native_compile_seconds() is None


def test_explicit_native_without_numba_warns_once(monkeypatch):
    block_numba(monkeypatch)
    with pytest.warns(RuntimeWarning, match=r"\[native\] extra"):
        assert resolve_backend("native") == "python"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("native") == "python"  # single warning


def test_backend_gauge_records_resolution(monkeypatch):
    block_numba(monkeypatch)
    resolve_backend("python")
    assert metrics_registry().gauge(metric_names.KERNEL_BACKEND).value == 0.0


def test_degraded_engines_serve_identical_results(monkeypatch):
    """backend='native' without numba == the python reference, bit for bit."""
    block_numba(monkeypatch)
    graph = build_stream_graph(23, 14, 90)
    reference = graph.csr()
    with pytest.warns(RuntimeWarning):
        degraded_delta = DeltaCSR(graph, backend="native")
    degraded_fresh = DeltaCSR(graph, backend="native")
    ids = list(range(graph.num_interned))
    id_sets = [ids[i : i + 3] for i in range(0, len(ids), 3)]
    assert degraded_delta.backend == "python"
    assert degraded_fresh.backend == "python"
    assert degraded_delta.spread_counts(id_sets) == reference.spread_counts(
        id_sets
    )
    assert degraded_fresh.reachable_ids(ids[:4]) == reference.reachable_ids(
        ids[:4]
    )


# ----------------------------------------------------------------------
# Real warm-up (runs only where numba exists, e.g. the CI native leg)
# ----------------------------------------------------------------------
def test_warm_up_records_compile_time():
    pytest.importorskip("numba")
    assert native_available()
    elapsed = native_compile_seconds()
    assert elapsed is not None and elapsed >= 0.0
    assert resolve_backend("native") == "native"
    assert (
        metrics_registry().gauge(metric_names.KERNEL_BACKEND).value == 1.0
    )
    assert (
        metrics_registry()
        .gauge(metric_names.KERNEL_NATIVE_COMPILE_SECONDS)
        .value
        == pytest.approx(elapsed)
    )
