"""Compare two sets of benchmark runs; flag runs whose environments differ.

Each argument is a file of captured ``perfbench/run.py`` standard output,
one or more runs appended.  For every metric it prints each side's median
and quartiles and the change between the medians.  It warns when the
runs' environment facts -- kernel backend, scalar/vector cutover,
executor mode, nproc, Python and numpy versions -- are not all the same,
because each of them changes the code path under measurement.

    python3 perfbench/compare.py parent.log change.log
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional


def load(path: str) -> tuple:
    """The ``env`` facts and result objects of every run in a log."""
    envs: List[dict] = []
    results: List[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("env "):
                envs.append(json.loads(line[4:]))
            elif line.startswith("{"):
                results.append(json.loads(line))
    return envs, results


def env_differences(envs: List[dict]) -> List[str]:
    """One line per environment fact that is not the same in every run."""
    lines = []
    for key in sorted({key for env in envs for key in env}):
        seen = sorted({json.dumps(env.get(key)) for env in envs})
        if len(seen) > 1:
            lines.append(f"{key}: {', '.join(seen)}")
    return lines


def summary(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:14.6g}"
    low, _, high = statistics.quantiles(values, n=4)
    return f"{median:14.6g} [{low:.6g}, {high:.6g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (envs_a, results_a), (envs_b, results_b) = load(argv[0]), load(argv[1])
    if not results_a or not results_b:
        print("each log must hold at least one run result", file=sys.stderr)
        return 2
    differences = env_differences(envs_a + envs_b)
    for line in differences:
        print(f"WARNING environment differs -- {line}")
    print(f"runs: {len(results_a)} vs {len(results_b)}")
    columns: Dict[str, tuple] = {}
    for side, results in ((0, results_a), (1, results_b)):
        for result in results:
            for name, entry in result["metrics"].items():
                column = columns.setdefault(name, ([], [], entry["unit"]))
                column[side].append(entry["value"])
    for name, (a, b, unit) in columns.items():
        if not a or not b:
            continue
        base = statistics.median(a)
        change = (statistics.median(b) - base) / base if base else float("nan")
        print(f"{name:<30} {summary(a):<40} {summary(b):<40} {change:+8.2%} {unit}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
