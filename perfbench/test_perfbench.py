"""Tiny-size checks of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "run.py")
)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)
layer_trace = bench.layer_trace

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)

TINY = ["--seed", "3", "--seconds", "0.02", "--warmup", "10"]


def _result(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def _wrapped_objects() -> dict:
    """The current object behind every attribute the tracer wraps.

    ``getattr`` first, so an entry point the library no longer has fails
    here instead of comparing equal as absent on both sides.
    """
    found = {}
    entries = [(m, o, a) for m, o, a, _ in layer_trace.SPANS]
    for module, owner, attribute in entries + list(layer_trace.COUNTED):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        getattr(target, attribute)
        found[module, owner, attribute] = vars(target).get(attribute)
    return found


@pytest.fixture(scope="module")
def runs():
    """One tiny end-to-end and one tiny traced run per workload."""
    before = _wrapped_objects()
    results = {}
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            buffer = io.StringIO()
            argv = ["--workload", workload, "--trace", str(trace), *TINY]
            with contextlib.redirect_stdout(buffer):
                code = bench.main(argv)
            results[workload, trace] = (code, buffer.getvalue())
    return {"results": results, "before": before, "after": _wrapped_objects()}


def test_declared_workloads_match():
    def declared(kind):
        return [(m["name"], m["unit"]) for m in DECLARED[kind]]

    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert declared("end_to_end") == list(bench.END_TO_END)
    assert declared("per_layer") == list(bench.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_printed_with_unit(runs, workload, trace):
    code, output = runs["results"][workload, trace]
    assert code == 0, output
    result = _result(output)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        name, unit = re.escape(metric["name"]), re.escape(metric["unit"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = rf"^metric {name} +\S+ {unit}\b"
        assert re.search(line, output, re.MULTILINE), metric["name"]
    assert re.search(r"^metric error_rate +0\.0+ ratio", output, re.MULTILINE)
    if not trace:
        assert re.search(r"^metric step_p99_ms +\S+ ms +n=", output, re.MULTILINE)
    assert re.search(r'^env \{.*"scalar_pair_limit_calibrated"', output, re.MULTILINE)
    if bench.WORKLOADS[workload].workers > 1:
        assert '"executor_state": "sharded"' in output
        assert re.search(r"^check health +ok  state sharded", output, re.MULTILINE)


def test_traced_run_restores_originals(runs):
    assert runs["after"] == runs["before"]
    for key, original in runs["before"].items():
        assert runs["after"][key] is original, key


def test_every_entry_point_is_wrapped():
    recorder = layer_trace.SpanRecorder()
    recorder.install()
    recorder.restore()
    assert recorder.missing == []


def test_missing_entry_point_fails_the_run(monkeypatch):
    spans = layer_trace.SPANS + (
        ("repro.tdn.graph", "TDNGraph", "no_such_method", "tdn.ingest_s"),
    )
    monkeypatch.setattr(layer_trace, "SPANS", spans)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = bench.main(["--workload", "hist-b1", "--trace", "1", *TINY])
    output = buffer.getvalue()
    assert code != 0
    assert not _result(output)["correct"]
    line = r"^check trace-coverage +FAILED .*no_such_method"
    assert re.search(line, output, re.MULTILINE)


class _DegradedTracker:
    """Stands in for a sharded tracker whose executor fell back to serial."""

    graph = None

    def health_report(self):
        return {"state": "degraded", "incidents": {"worker process died": 1}}


def test_degraded_executor_fails_the_health_check():
    tracker = _DegradedTracker()
    before = dict(bench.counters(tracker), incidents=0.0, dispatches=-1.0)
    ok, detail = bench.check_health(tracker, before)
    assert not ok and "state degraded" in detail


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_layer_self_times_sum_to_traced_wall(runs, workload):
    _, output = runs["results"][workload, 1]
    metrics = {
        name: entry["value"] for name, entry in _result(output)["metrics"].items()
    }
    layers = sum(metrics[name] for name in layer_trace.SELF_TIME_METRICS)
    assert metrics["trace.unattributed_s"] >= 0.0
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )
    assert metrics["core.self_s"] > 0.0
    executor_time = metrics["executor.dispatch_s"] + metrics["executor.publish_s"]
    assert (executor_time > 0.0) == (bench.WORKLOADS[workload].workers > 1)
    with open(bench.trace_path(bench.WORKLOADS[workload]), encoding="utf-8") as handle:
        spans = json.load(handle)
    assert "InfluenceTracker.step" in spans["names"]
    assert len(spans["start_ns"]) == len(spans["end_ns"]) == len(spans["parent"]) > 0


def test_timings_are_reported_at_nominal_host_speed(monkeypatch):
    monkeypatch.setattr(bench.HostSpeed, "speed", property(lambda self: 0.5))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = bench.main(["--workload", "sieve-bulk", "--trace", "0", *TINY])
    output = buffer.getvalue()
    assert code == 0, output
    metrics = _result(output)["metrics"]
    measured = {
        name: float(value)
        for name, value in re.findall(
            r"^metric (\S+) .*measured (\S+) at host speed 0\.500$", output, re.MULTILINE
        )
    }
    assert set(measured) == {
        "events_per_s", "oracle_calls_per_s", "step_p50_ms", "step_p99_ms", "setup_s"
    }
    for name in ("events_per_s", "oracle_calls_per_s"):
        assert metrics[name]["value"] == pytest.approx(2 * measured[name], rel=1e-5)
    for name in ("step_p50_ms", "setup_s"):
        assert metrics[name]["value"] == pytest.approx(measured[name] / 2, rel=1e-5)


def test_inputs_follow_the_seed():
    workload = bench.WORKLOADS["sieve-bulk"]
    first = bench.make_batches(workload, -7, 3)
    assert first == bench.make_batches(workload, -7, 3)
    assert first != bench.make_batches(workload, 10**30, 3)
    assert [len(batch) for batch in first] == [workload.batch_size] * 3


def _session_members(session: int) -> list:
    """Processes in session ``session``, running or unreaped, from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_run_leaves_no_process_behind():
    """Pool workers and the resource tracker end before run.py exits."""
    argv = ["--workload", "sieve-bulk-w2", "--trace", "0", *TINY]
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    output, errors = proc.communicate(timeout=120)
    assert proc.returncode == 0, output + errors
    assert _result(output)["correct"]
    assert _session_members(proc.pid) == []


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    argv = ["--workload", "hist-b1", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
