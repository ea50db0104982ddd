"""Process hygiene: sharding starts threads, never processes.

``InfluenceTracker(workers=2)`` and ``python -m repro.track --workers 2``
run in a fresh interpreter that afterwards reports what it started: its
child processes (``multiprocessing.active_children()`` and every
``/proc`` entry whose parent it is) and whether a multiprocessing
resource tracker is running.  Each run must also have actually sharded,
so the check is not vacuous.  A static check pins that no library module
imports ``multiprocessing`` at all.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = r"""
import contextlib
import io
import json
import os
import random
import sys

from repro.core.tracker import InfluenceTracker
from repro.obs import names
from repro.obs.registry import metrics_registry
from repro.tdn.lifetimes import GeometricLifetime
from repro.track import main


def children():
    me = os.getpid()
    found = []
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


def dispatches():
    return metrics_registry().counter_values()[names.EXECUTOR_DISPATCHES_TOTAL]


tracker = InfluenceTracker(
    "sieve-adn", k=3, epsilon=0.2,
    lifetime_policy=GeometricLifetime(0.05, 50, seed=1), workers=2,
)
rng = random.Random(1)
for t in range(30):
    pairs = [rng.sample(range(60), 2) for _ in range(20)]
    tracker.step(t, [(f"n{u}", f"n{v}", None) for u, v in pairs])
state = tracker.health_report()["state"]
tracker_dispatches = dispatches()
tracker.close()

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["--dataset", "twitter-hk", "--events", "400",
                 "--batch-size", "20", "--k", "3", "--algorithm", "sieve-adn",
                 "--workers", "2", "--quiet"])

mp = sys.modules.get("multiprocessing")
tracker_module = sys.modules.get("multiprocessing.resource_tracker")
print(json.dumps({
    "tracker_state": state,
    "tracker_dispatches": tracker_dispatches,
    "cli_code": code,
    "cli_sharded": "parallel engine:    sharded" in out.getvalue(),
    "cli_dispatches": dispatches() - tracker_dispatches,
    "active_children": len(mp.active_children()) if mp else 0,
    "proc_children": children(),
    "resource_tracker": bool(
        tracker_module
        and getattr(tracker_module._resource_tracker, "_pid", None) is not None
    ),
}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sharding_starts_no_process():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_FAULTS="")
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["tracker_state"] == "sharded"
    assert report["tracker_dispatches"] > 0
    assert report["cli_code"] == 0 and report["cli_sharded"]
    assert report["cli_dispatches"] > 0
    assert report["active_children"] == 0
    assert report["proc_children"] == []
    assert not report["resource_tracker"]


def test_no_library_module_imports_multiprocessing():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
