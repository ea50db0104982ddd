"""End-to-end tracker benchmark.

Replays a generated interaction stream through
``repro.core.tracker.InfluenceTracker`` in a closed loop -- one client
calls ``tracker.step(t, batch)`` for the next batch only after the
previous step returned -- and prints every end-to-end metric by name and
unit, then one JSON result line.  With ``--trace 1`` it instead steps an
untraced and a traced tracker alternately through the same batches and
prints the per-layer metrics of the traced one (see ``layer_trace.py``).

Run from the repository root::

    python3 perfbench/run.py --workload hist-b1 --seed 1 --seconds 20 --trace 0

The timed window is a fixed number of steps per workload, sized so that
it takes about ``--seconds`` at the first baseline's pace (README.md);
fixed work keeps ``oracle_calls`` deterministic per seed and gives both
sides of an A/B comparison identical work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no library sources under {SRC}; run from a full checkout")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy  # noqa: E402

import layer_trace  # noqa: E402
from repro.core.tracker import InfluenceTracker  # noqa: E402
from repro.datasets.registry import make_interactions  # noqa: E402
from repro.influence.oracle import InfluenceOracle  # noqa: E402
from repro.kernels import resolve_backend  # noqa: E402
from repro.obs import names as metric_names  # noqa: E402
from repro.obs.registry import metrics_registry  # noqa: E402
from repro.tdn.lifetimes import GeometricLifetime  # noqa: E402

#: Every workload: GeometricLifetime(p, L), budget k, grid resolution eps.
LIFETIME_P = 0.01
MAX_LIFETIME = 1000
K = 10
EPSILON = 0.2
#: Untimed warm-up: three mean lifetimes (1/p = 100 steps), so alive
#: edges, the memo and HistApprox's histogram reach steady state.
WARMUP_STEPS = 300
#: Set for the run, restored after.  Every workload runs the python
#: kernel backend.  The scalar/vector cutover is pinned to the library's
#: default: calibration is timed per process, and under load it lands on
#: 8192 instead of 2048 now and then, which moves sieve-bulk's ~4.8k
#: alive pairs from the vector to the scalar path.
PINNED_ENV = {"REPRO_KERNEL_BACKEND": "python", "REPRO_SCALAR_PAIR_LIMIT": "2048"}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    algorithm: str
    batch_size: int
    workers: int
    #: The timed window is ``steps_per_second * --seconds`` steps: about
    #: the first baseline's pace on a 2-core box.
    steps_per_second: float
    setup_repeats: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hist-b1", "twitter-higgs", "hist-approx", 1, 1, 800.0, 7),
        Workload("sieve-bulk", "gowalla", "sieve-adn", 50, 1, 280.0, 3),
        Workload("sieve-bulk-w2", "gowalla", "sieve-adn", 50, 2, 100.0, 3),
    )
}

END_TO_END = (
    ("events_per_s", "1/s"),
    ("oracle_calls_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("oracle_calls", "count"),
)
#: Printed by every ``--trace 0`` run but not declared in BENCHMARK.json:
#: on sieve-bulk-w2 it moves with the host's load by more than the largest
#: bound a declared metric may have (README.md).
STEP_P99 = ("step_p99_ms", "ms")

PER_LAYER = (
    ("tdn.ingest_s", "s"),
    ("tdn.expire_s", "s"),
    ("tdn.csr_sync_s", "s"),
    ("tdn.compactions", "count"),
    ("tdn.alive_pairs", "count"),
    ("changed.sweep_s", "s"),
    ("changed.calls", "count"),
    ("changed.candidates_per_batch", "count"),
    ("changed.cone_reuse_ratio", "ratio"),
    ("oracle.protocol_s", "s"),
    ("oracle.sync_s", "s"),
    ("oracle.spread_many_calls", "count"),
    ("oracle.sets_per_call", "count"),
    ("oracle.memo_hit_ratio", "ratio"),
    ("oracle.memo_evictions", "count"),
    ("kernel.scalar_s", "s"),
    ("kernel.scalar_calls", "count"),
    ("kernel.vector_s", "s"),
    ("kernel.vector_calls", "count"),
    ("kernel.bitplane_s", "s"),
    ("kernel.bitplane_calls", "count"),
    ("kernel.plane_fill", "ratio"),
    ("core.self_s", "s"),
    ("core.calls_per_step", "calls/step"),
    ("core.instances_mean", "count"),
    ("core.thresholds_mean", "count"),
    ("executor.dispatch_s", "s"),
    ("executor.publish_s", "s"),
    ("executor.publishes", "count"),
    ("executor.dispatches", "count"),
    ("executor.serial_fallbacks", "count"),
    ("executor.incidents", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------
def derive_seed(seed: int, purpose: str) -> int:
    """A non-negative 64-bit seed for one input stream, from any integer."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_batches(workload: Workload, seed: int, num_steps: int) -> List[list]:
    """``num_steps`` batches of ``(source, target, lifetime)`` tuples."""
    interactions = make_interactions(
        workload.dataset,
        num_steps * workload.batch_size,
        seed=derive_seed(seed, "stream"),
    )
    policy = GeometricLifetime(
        LIFETIME_P, MAX_LIFETIME, seed=derive_seed(seed, "lifetime")
    )
    flat = [(i.source, i.target, policy.draw(i)) for i in interactions]
    size = workload.batch_size
    return [flat[start : start + size] for start in range(0, len(flat), size)]


def set_up(
    workload: Workload,
    seed: int,
    warmup: int,
    steps: int,
    workers: Optional[int] = None,
    host: Optional["HostSpeed"] = None,
):
    """Generate inputs, build the tracker (and pool), run the warm-up.

    Returns ``(seconds, tracker, timed_batches)``; the seconds are the
    benchmark's set-up time, without the ``host`` samples taken between
    warm-up steps.
    """
    started = time.perf_counter()
    sampled = host.seconds if host is not None else 0.0
    batches = make_batches(workload, seed, warmup + steps)
    tracker = InfluenceTracker(
        workload.algorithm,
        k=K,
        epsilon=EPSILON,
        workers=workload.workers if workers is None else workers,
    )
    try:
        for t in range(warmup):
            tracker.step(t, batches[t])
            if host is not None:
                host.sample()
    except BaseException:
        tracker.close()
        raise
    if host is not None:
        sampled = host.seconds - sampled
    return time.perf_counter() - started - sampled, tracker, batches[warmup:]


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Reference units per second on the nominal host: a 2-vCPU Xeon KVM
#: guest in its usual state.  Timings are reported at this speed.
NOMINAL_REFERENCE_RATE = 8500.0


_REFERENCE_COUNTS: Dict[int, int] = {}


def reference_unit() -> int:
    """Fixed interpreter work: integer arithmetic and dict updates.

    It reuses one dict and creates no other container, so it never feeds
    the garbage collector, whose passes would scan the tracker's heap and
    make the reference depend on the program's state.
    """
    counts = _REFERENCE_COUNTS
    counts.clear()
    for i in range(600):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + i
    return sum(counts.values())


class HostSpeed:
    """The host's speed over a run, sampled with fixed work between steps.

    On a shared host a vCPU's speed changes by up to 1.5x over tens of
    seconds, so a whole run can land in a slow or a fast phase.  Every
    ``EVERY_S`` seconds :meth:`sample` runs :func:`reference_unit` for
    ``SLICE_S`` seconds, outside every timed interval; :attr:`speed` is
    the reference rate measured over the nominal one.  Dividing a
    throughput by it (multiplying a time by it) reports the value at the
    nominal host's speed.  Samples are taken between steps, when the
    tracker and its worker pool are idle, so they measure the host, not
    the program.
    """

    EVERY_S = 0.1
    SLICE_S = 0.01

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self._due = time.perf_counter() + self.EVERY_S

    def sample(self) -> None:
        clock = time.perf_counter
        started = clock()
        if started < self._due:
            return
        units = 0
        while clock() - started < self.SLICE_S:
            reference_unit()
            units += 1
        ended = clock()
        self.units += units
        self.seconds += ended - started
        self._due = ended + self.EVERY_S

    @property
    def speed(self) -> float:
        if not self.units:
            return 1.0
        return self.units / self.seconds / NOMINAL_REFERENCE_RATE


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Replay:
    """One tracker's pass over the timed window, one closed-loop step at a time.

    ``wall_s`` adds up each step's segment -- the step plus the loop's own
    bookkeeping (solution hash, gauges) -- so two replays interleaved
    step by step are timed independently of each other.
    """

    def __init__(
        self,
        tracker: InfluenceTracker,
        on_step: Optional[Callable[[InfluenceTracker], None]] = None,
    ) -> None:
        self.tracker = tracker
        self.on_step = on_step
        self.wall_s = 0.0
        self.durations: List[float] = []
        self.failed = 0
        self.solution = None
        self._hash = hashlib.sha256()
        self._calls_before = tracker.oracle_calls

    def step(self, t: int, batch: list) -> None:
        clock = time.perf_counter
        started = clock()
        try:
            solution = self.tracker.step(t, batch)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            self.durations.append(clock() - started)
            self.solution = solution
            self._hash.update(repr((t, solution.nodes, solution.value)).encode())
            if self.on_step is not None:
                self.on_step(self.tracker)
        self.wall_s += clock() - started

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def oracle_calls(self) -> int:
        return self.tracker.oracle_calls - self._calls_before


def replay(
    tracker: InfluenceTracker,
    batches: List[list],
    first_step: int,
    host: Optional[HostSpeed] = None,
) -> Replay:
    """Step through ``batches``, timing each step and hashing its solution."""
    run = Replay(tracker)
    for t, batch in enumerate(batches, start=first_step):
        run.step(t, batch)
        if host is not None:
            host.sample()
    return run


def replay_interleaved(
    plain_tracker: InfluenceTracker,
    traced_tracker: InfluenceTracker,
    batches: List[list],
    first_step: int,
    recorder: layer_trace.SpanRecorder,
    gauges: "Gauges",
) -> tuple:
    """Step an untraced and a traced tracker alternately through ``batches``.

    The wrappers are installed only around the traced tracker's steps, so
    both replays see the same machine state and their ratio is the
    tracing overhead rather than drift between two separate runs.  The
    process-wide registry counters are read around each traced step, off
    the clock; returns ``(plain, traced, counter deltas of traced steps)``.
    """
    plain, traced = Replay(plain_tracker), Replay(traced_tracker, on_step=gauges)
    moved: Dict[str, float] = {}
    for t, batch in enumerate(batches, start=first_step):
        plain.step(t, batch)
        before = counters(traced_tracker)
        recorder.install()
        try:
            traced.step(t, batch)
        finally:
            recorder.restore()
        for key, value in counters(traced_tracker).items():
            moved[key] = moved.get(key, 0.0) + value - before[key]
    return plain, traced, moved


# ----------------------------------------------------------------------
# Correctness checks and environment facts
# ----------------------------------------------------------------------
def solution_horizon(algorithm) -> Optional[float]:
    """The horizon the algorithm evaluated its reported value at."""
    horizons = getattr(algorithm, "horizons", None)
    if horizons is not None:  # HistApprox: the head instance's horizon
        live = horizons()
        return live[0] if live else None
    return getattr(algorithm, "min_expiry", None)


def check_value(tracker: InfluenceTracker, solution) -> tuple:
    """Recompute the final value with a fresh reference dict oracle."""
    if solution is None:
        return False, "no solution"
    oracle = InfluenceOracle(tracker.graph, backend="dict")
    expected = oracle.spread(solution.nodes, solution_horizon(tracker.algorithm))
    return expected == solution.value, f"reported {solution.value} vs dict {expected}"


def check_health(tracker: InfluenceTracker, before: Dict[str, float]) -> tuple:
    """The parallel engine served the whole timed window sharded.

    A degraded executor answers serially with the same results, so a
    sharded tracker must end in state ``sharded``, with dispatches and no
    new incident or serial fallback since ``before`` (:func:`counters`
    read as the window opened).  Dispatches and fallbacks are process-wide
    registry counts, incidents and state the tracker's own.  Call before
    close.
    """
    report = tracker.health_report()
    if report is None:
        return True, "serial"
    moved = {key: value - before[key] for key, value in counters(tracker).items()}
    state = report.get("state")
    ok = (
        state == "sharded"
        and moved["dispatches"] > 0
        and moved["incidents"] == 0
        and moved["fallbacks"] == 0
    )
    return ok, (
        f"state {state}; in the window {moved['dispatches']:.0f} dispatches, "
        f"{moved['incidents']:.0f} incidents, {moved['fallbacks']:.0f} serial fallbacks"
    )


def check_same(label: str, ours: Replay, theirs: Replay) -> tuple:
    same = ours.digest == theirs.digest and ours.oracle_calls == theirs.oracle_calls
    return same, (
        f"{label}: digest {theirs.digest[:16]} calls {theirs.oracle_calls} vs "
        f"digest {ours.digest[:16]} calls {ours.oracle_calls}"
    )


def environment(tracker: InfluenceTracker) -> dict:
    """Facts that change the code path; compare.py flags a mismatch.

    Read at the end of the timed window, before close.  Next to the pinned
    cutover in force it records the one this process's calibration picks,
    which is what an unpinned user gets.
    """
    backend = resolve_backend(None)
    try:
        from repro.tdn.csr import (
            calibrate_scalar_pair_limit,
            resolve_scalar_pair_limit,
        )

        cutover = resolve_scalar_pair_limit(None, backend)
        calibrated = calibrate_scalar_pair_limit()
    except (ImportError, TypeError):
        cutover = calibrated = None
    report = tracker.health_report()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "kernel_backend": backend,
        "scalar_pair_limit": cutover,
        "scalar_pair_limit_calibrated": calibrated,
        "executor_mode": report.get("mode") if report else "serial",
        "executor_state": report.get("state") if report else "serial",
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Per-layer inputs that are not spans
# ----------------------------------------------------------------------
class Gauges:
    """Per-step samples of the graph and the algorithm's state."""

    def __init__(self) -> None:
        self.steps = 0
        self.pairs = 0
        self.instances = 0
        self.thresholds = 0.0

    def __call__(self, tracker: InfluenceTracker) -> None:
        algorithm = tracker.algorithm
        instances = getattr(algorithm, "_instances", None)  # HistApprox
        members = list(instances.values()) if instances is not None else [algorithm]
        sizes = [len(m.thresholds) for m in members if hasattr(m, "thresholds")]
        self.steps += 1
        self.pairs += tracker.graph.num_pairs
        self.instances += len(members)
        self.thresholds += sum(sizes) / len(sizes) if sizes else 0.0


def counters(tracker: InfluenceTracker) -> Dict[str, float]:
    """Registry counters and engine/executor state, read without side effects."""
    values = metrics_registry().counter_values()
    report = tracker.health_report() or {}
    engine = getattr(tracker.graph, "_delta", None)
    return {
        "hits": values.get(metric_names.ORACLE_MEMO_HITS_TOTAL, 0.0),
        "misses": values.get(metric_names.ORACLE_MEMO_MISSES_TOTAL, 0.0),
        "evictions": values.get(metric_names.ORACLE_MEMO_EVICTIONS_TOTAL, 0.0),
        "dispatches": values.get(metric_names.EXECUTOR_DISPATCHES_TOTAL, 0.0),
        "fallbacks": values.get(metric_names.EXECUTOR_SERIAL_FALLBACKS_TOTAL, 0.0),
        "compactions": getattr(engine, "compactions", 0),
        "publishes": report.get("plane_generation") or 0,
        "incidents": sum((report.get("incidents") or {}).values()),
    }


def per_layer_metrics(
    recorder: layer_trace.SpanRecorder,
    traced: Replay,
    untraced: Replay,
    gauges: Gauges,
    delta: Dict[str, float],
) -> Dict[str, float]:
    lookups = delta["hits"] + delta["misses"]
    steps = max(gauges.steps, 1)
    metrics = layer_trace.layer_metrics(recorder, traced.wall_s)
    metrics.update(
        {
            "tdn.compactions": delta["compactions"],
            "tdn.alive_pairs": gauges.pairs / steps,
            "oracle.memo_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "oracle.memo_evictions": delta["evictions"],
            "core.calls_per_step": traced.oracle_calls / steps,
            "core.instances_mean": gauges.instances / steps,
            "core.thresholds_mean": gauges.thresholds / steps,
            "executor.publishes": delta["publishes"],
            "executor.dispatches": delta["dispatches"],
            "executor.serial_fallbacks": delta["fallbacks"],
            "executor.incidents": delta["incidents"],
            "trace.overhead": traced.wall_s / untraced.wall_s,
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def percentile_ms(durations: List[float], q: float) -> float:
    """Nearest-rank percentile of step durations, in milliseconds."""
    ordered = sorted(durations)
    if not ordered:
        return float("nan")
    return 1e3 * ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def serial_twin(workload, args, warmup, steps, timed: Replay, stack) -> tuple:
    """Replay the same inputs serially; the executor must not change results."""
    _, twin, batches = set_up(workload, args.seed, warmup, steps, workers=1)
    stack.callback(twin.close)
    return check_same("serial twin", timed, replay(twin, batches, warmup))


def end_to_end(workload: Workload, args, warmup: int, steps: int, stack) -> tuple:
    """Timings are reported at the nominal host's speed (:class:`HostSpeed`);
    the notes carry them as measured."""
    setup_seconds = []
    setup_host, timed_host = HostSpeed(), HostSpeed()
    tracker = None
    for _ in range(workload.setup_repeats):
        if tracker is not None:
            tracker.close()
        seconds, tracker, batches = set_up(
            workload, args.seed, warmup, steps, host=setup_host
        )
        setup_seconds.append(seconds)
    stack.callback(tracker.close)
    before = counters(tracker)
    timed = replay(tracker, batches, warmup, host=timed_host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = {
        "value": check_value(tracker, timed.solution),
        "health": check_health(tracker, before),
    }
    env = environment(tracker)
    tracker.close()
    if workload.workers > 1:
        checks["serial-twin"] = serial_twin(
            workload, args, warmup, steps, timed, stack
        )
    events = steps * workload.batch_size
    measured = {
        "events_per_s": events / timed.wall_s,
        "oracle_calls_per_s": timed.oracle_calls / timed.wall_s,
        "step_p50_ms": percentile_ms(timed.durations, 0.50),
        "step_p99_ms": percentile_ms(timed.durations, 0.99),
        "setup_s": statistics.median(setup_seconds),
    }
    speed = {name: timed_host.speed for name in measured}
    speed["setup_s"] = setup_host.speed
    metrics = {
        name: value / speed[name] if name.endswith("_per_s") else value * speed[name]
        for name, value in measured.items()
    }
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["oracle_calls"] = float(timed.oracle_calls)
    samples = {
        "step_p50_ms": f"n={len(timed.durations)}, ",
        "step_p99_ms": f"n={len(timed.durations)}, ",
        "setup_s": f"median of {len(setup_seconds)}, ",
    }
    notes = {
        name: f"{samples.get(name, '')}measured {value:.6g} at host speed {speed[name]:.3f}"
        for name, value in measured.items()
    }
    return env, [timed], checks, metrics, notes


def traced_run(workload: Workload, args, warmup: int, steps: int, stack) -> tuple:
    _, plain_tracker, batches = set_up(workload, args.seed, warmup, steps)
    stack.callback(plain_tracker.close)
    _, traced_tracker, _ = set_up(workload, args.seed, warmup, steps)
    stack.callback(traced_tracker.close)
    recorder = layer_trace.SpanRecorder()
    gauges = Gauges()
    plain_before, traced_before = counters(plain_tracker), counters(traced_tracker)
    untraced, traced, moved = replay_interleaved(
        plain_tracker, traced_tracker, batches, warmup, recorder, gauges
    )
    checks = {
        "value": check_value(plain_tracker, untraced.solution),
        "health": check_health(plain_tracker, plain_before),
        "traced-health": check_health(traced_tracker, traced_before),
        "traced-identical": check_same("untraced", traced, untraced),
        "trace-coverage": (
            not recorder.missing,
            "not wrapped: " + ", ".join(recorder.missing)
            if recorder.missing
            else f"{len(layer_trace.SPANS)} spans, {len(layer_trace.COUNTED)} counters",
        ),
    }
    env = environment(plain_tracker)
    plain_tracker.close()
    traced_tracker.close()
    if workload.workers > 1:
        checks["serial-twin"] = serial_twin(
            workload, args, warmup, steps, untraced, stack
        )
    trace_out = trace_path(workload)
    recorder.dump(trace_out)
    metrics = per_layer_metrics(recorder, traced, untraced, gauges, moved)
    notes = {"trace.wall_s": f"spans={len(recorder.start)} -> {trace_out}"}
    return env, [untraced, traced], checks, metrics, notes


def trace_path(workload: Workload) -> str:
    """Where a traced run dumps its spans."""
    return os.path.join(ROOT, ".perfbench-out", f"trace-{workload.name}.json")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        default=10.0,
        help="sizes the timed window (steps = pace x seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup", type=int, default=WARMUP_STEPS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.warmup < 0:
        parser.error("--seconds must be positive, --warmup non-negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    steps = max(1, round(workload.steps_per_second * args.seconds))
    warmup = args.warmup
    previous = {name: os.environ.get(name) for name in PINNED_ENV}
    os.environ.update(PINNED_ENV)
    try:
        with contextlib.ExitStack() as stack:
            run = traced_run if args.trace else end_to_end
            env, replays, checks, metrics, notes = run(
                workload, args, warmup, steps, stack
            )
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    attempted = sum(len(r.durations) + r.failed for r in replays)
    failed = sum(r.failed for r in replays)
    failed += sum(1 for ok, _ in checks.values() if not ok)
    print(
        f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
        f"steps={steps} warmup={warmup} events={steps * workload.batch_size} "
        f"(closed loop, 1 client, batch {workload.batch_size})"
    )
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {replays[0].digest} oracle_calls={replays[0].oracle_calls}")
    for name, (ok, detail) in checks.items():
        print(f"check {name:<17} {'ok' if ok else 'FAILED'}  {detail}")
    catalog = PER_LAYER if args.trace else END_TO_END
    for name, unit in catalog if args.trace else catalog + (STEP_P99,):
        note = notes.get(name, "")
        print(f"metric {name:<29} {metrics[name]:>16.6f} {unit:<10} {note}".rstrip())
    print(
        f"metric {'error_rate':<29} {failed / attempted:>16.6f} {'ratio':<10} "
        f"{failed} failed / {attempted} attempted"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in catalog
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def child_pids() -> List[int]:
    """Children of this process, running or not yet reaped, from /proc."""
    me, found = os.getpid(), []
    with contextlib.suppress(OSError):
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            with contextlib.suppress(OSError, IndexError, ValueError):
                with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                    stat = handle.read()
                # The command name may hold spaces; fields after ')' do not.
                if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                    found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Closed trackers have joined their pool workers already.  What is left
    is multiprocessing's resource tracker, which the shared-memory plane
    starts and which on its own exits only after this process does.  Any
    child still running after ``grace`` seconds is killed, then reaped.
    """
    grace = 5.0
    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    if getattr(resource_tracker._resource_tracker, "_pid", None) is not None:
        with contextlib.suppress(AttributeError, OSError):
            resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    while pids := child_pids():
        late = time.monotonic() > deadline
        for pid in pids:
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
        if late:
            return
        time.sleep(0.02)


def _exit_on_sigterm(signum, frame) -> None:
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        exit_code = main()
    finally:
        stop_children()
    sys.exit(exit_code)
