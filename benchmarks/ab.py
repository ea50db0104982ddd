"""Same-box A/B driver for ``perfbench/run.py``: a base ref against HEAD.

Checks the base ref out with ``git worktree``, then runs ``perfbench/run.py`` in interleaved
pairs: pair *i* runs both sides on the same seed, and even pairs run the
base first, odd pairs HEAD first, so a host that drifts between a fast
and a slow state lands on both sides alike.  Each side's output goes to
its own log; ``perfbench/compare.py`` then prints medians and quartiles
per metric, and this script adds, per end-to-end metric that
``BENCHMARK.json`` declares, the pairs HEAD won and the median of the
per-pair ratios (oriented so that above 1 is better).  Digests and
``oracle_calls`` of the two runs of a pair must match: a mismatch is
reported and makes the exit status non-zero.

    python3 benchmarks/ab.py --base HEAD~1 --workload sieve-bulk \\
        --pairs 10 --seeds 9001 --seconds 20

HEAD means the working tree the script runs from, uncommitted edits
included.  Logs land in ``--out`` (default ``.perfbench-out/ab``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

BASE = "base"
HEAD = "head"

#: One run's parsed output, and one pair of them as ``(base, head)``.
Run = Dict[str, object]
Pair = Tuple[Run, Run]


def schedule(pairs: int, seeds: Sequence[int]) -> List[Tuple[int, Tuple[str, str]]]:
    """``(seed, run order)`` per pair: seeds cycle, the first side alternates."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if not seeds:
        raise ValueError("at least one seed is required")
    return [
        (seeds[index % len(seeds)], (BASE, HEAD) if index % 2 == 0 else (HEAD, BASE))
        for index in range(pairs)
    ]


def parse_run(output: str) -> Run:
    """The digest, ``oracle_calls`` and metric values of one run's output."""
    digest: Optional[str] = None
    calls: Optional[int] = None
    metrics: Dict[str, float] = {}
    for line in output.splitlines():
        if line.startswith("digest "):
            fields = line.split()
            digest = fields[1]
            calls = int(fields[2].split("=", 1)[1])
        elif line.startswith("{"):
            result = json.loads(line)
            metrics = {
                name: entry["value"] for name, entry in result["metrics"].items()
            }
    return {"digest": digest, "oracle_calls": calls, "metrics": metrics}


def pair_ratio(base: float, head: float, better: str) -> float:
    """HEAD over base for a higher-is-better metric, base over HEAD
    otherwise, so above 1 always means HEAD is better."""
    return head / base if better == "higher" else base / head


def summarize(runs: Sequence[Pair], declared: Sequence[Dict]) -> List[Dict]:
    """Per declared metric: pairs won by HEAD (ties count for neither side)
    and the median per-pair ratio."""
    rows = []
    for metric in declared:
        name, better = metric["name"], metric["better"]
        pairs = [
            (base["metrics"][name], head["metrics"][name])
            for base, head in runs
            if name in base["metrics"] and name in head["metrics"]
        ]
        if not pairs:
            continue
        ratios = [pair_ratio(b, h, better) for b, h in pairs if b and h]
        rows.append(
            {
                "name": name,
                "wins": sum(1 for ratio in ratios if ratio > 1.0),
                "pairs": len(pairs),
                "median_ratio": statistics.median(ratios) if ratios else float("nan"),
            }
        )
    return rows


def mismatches(runs: Sequence[Pair]) -> List[int]:
    """Indices of pairs whose digest or ``oracle_calls`` differ."""
    return [
        index
        for index, (base, head) in enumerate(runs)
        if (base["digest"], base["oracle_calls"])
        != (head["digest"], head["oracle_calls"])
    ]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """One ``perfbench/run.py`` run from the root of ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} in {checkout} exited {completed.returncode}:\n"
            f"{completed.stdout}{completed.stderr}"
        )
    return completed.stdout


def add_worktree(ref: str) -> Path:
    """A detached ``git worktree`` of ``ref`` in a fresh temporary directory."""
    path = Path(tempfile.mkdtemp(prefix="ab-base-"))
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(path), ref],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
    )
    return path


def remove_worktree(path: Path) -> None:
    subprocess.run(
        ["git", "worktree", "remove", "--force", str(path)],
        cwd=REPO_ROOT,
        check=False,
        capture_output=True,
    )
    shutil.rmtree(path, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--base", required=True, help="git ref to check out as the base side"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / ".perfbench-out" / "ab"
    )
    args = parser.parse_args(argv)

    plan = schedule(args.pairs, args.seeds)
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)
    logs = {side: args.out / f"{args.workload}-{side}.log" for side in (BASE, HEAD)}
    for log in logs.values():
        log.write_text("")
    worktree = add_worktree(args.base)
    checkouts = {BASE: worktree, HEAD: REPO_ROOT}
    runs = []
    try:
        for index, (seed, order) in enumerate(plan):
            parsed = {}
            for side in order:
                output = run_once(checkouts[side], args.workload, seed, args.seconds)
                with open(logs[side], "a", encoding="utf-8") as handle:
                    handle.write(output)
                parsed[side] = parse_run(output)
            runs.append((parsed[BASE], parsed[HEAD]))
            ratio = pair_ratio(
                parsed[BASE]["metrics"]["events_per_s"],
                parsed[HEAD]["metrics"]["events_per_s"],
                "higher",
            )
            print(
                f"pair {index + 1}/{len(plan)} seed={seed} first={order[0]} "
                f"events_per_s ratio {ratio:.3f}",
                flush=True,
            )
    finally:
        remove_worktree(worktree)

    subprocess.run(
        [sys.executable, "perfbench/compare.py", str(logs[BASE]), str(logs[HEAD])],
        cwd=REPO_ROOT,
        check=False,
    )
    for row in summarize(runs, declared):
        print(
            f"{row['name']:<22} HEAD wins {row['wins']}/{row['pairs']}  "
            f"median ratio {row['median_ratio']:.3f}"
        )
    bad = mismatches(runs)
    for index in bad:
        print(f"MISMATCH pair {index + 1}: digest or oracle_calls differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
