"""Fold accumulated ``BENCH_*.json`` exports into one trajectory summary.

Every CI run uploads a pytest-benchmark JSON (``BENCH_substrate_micro.json``)
and ``benchmarks/results/`` keeps one checked-in snapshot per PR
(``BENCH_pr2_substrate_micro.json``, ...).  This script folds any number of
those files into a single ``TRAJECTORY.json``: for every benchmark, the
median runtime (plus the floors' ``extra_info`` speedups) per source file,
ordered by source label — the per-PR performance trajectory of the
substrate, ready for plotting or regression triage.

Each source's machine fingerprint (``machine``, ``python_version``,
``cpu.brand_raw``, ``cpu.count`` from the export's ``machine_info``) is
recorded too.  A benchmark whose rows come from different fingerprints
compares machines as much as code, so it is listed under
``mixed_machines`` and a warning is printed for it.

Usage::

    python benchmarks/assemble_trajectory.py \
        --output TRAJECTORY.json benchmarks/results/BENCH_*.json

Inputs that are not pytest-benchmark exports are rejected; missing inputs
are an error (CI should fail loudly, not upload an empty trajectory).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

_LABEL_PATTERN = re.compile(r"^BENCH_(?P<label>.+)\.json$")


def source_label(path: Path) -> str:
    """The trajectory label of one export: ``BENCH_<label>.json``."""
    match = _LABEL_PATTERN.match(path.name)
    if match is None:
        return path.stem
    return match.group("label")


def _natural_key(label: str):
    """Sort key with embedded numbers compared numerically.

    Keeps the per-PR series chronological past single digits: ``pr10``
    must follow ``pr9``, not land between ``pr1`` and ``pr2``.
    """
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", label)
    ]


def load_export(path: Path) -> Dict:
    """Read one pytest-benchmark JSON export (strict about its shape)."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ValueError(f"{path} is not a pytest-benchmark JSON export")
    return payload


def machine_fingerprint(payload: Dict) -> Dict[str, Optional[object]]:
    """The facts of an export's ``machine_info`` that make timings comparable."""
    info = payload.get("machine_info") or {}
    cpu = info.get("cpu") or {}
    return {
        "machine": info.get("machine"),
        "python_version": info.get("python_version"),
        "cpu.brand_raw": cpu.get("brand_raw"),
        "cpu.count": cpu.get("count"),
    }


def assemble(paths: List[Path]) -> Dict:
    """Build the trajectory document from the given exports."""
    if not paths:
        raise ValueError("no benchmark exports given")
    sources = []
    machines: Dict[str, Dict] = {}
    benchmarks: Dict[str, List[Dict]] = {}
    for path in sorted(paths, key=lambda p: _natural_key(source_label(p))):
        payload = load_export(path)
        label = source_label(path)
        sources.append(label)
        machines[label] = machine_fingerprint(payload)
        for row in payload["benchmarks"]:
            entry = {
                "source": label,
                "median_seconds": row["stats"]["median"],
            }
            extra = row.get("extra_info") or {}
            if extra:
                entry["extra_info"] = extra
            benchmarks.setdefault(row["name"], []).append(entry)
    mixed = sorted(
        name
        for name, rows in benchmarks.items()
        if len({tuple(machines[row["source"]].values()) for row in rows}) > 1
    )
    return {
        "format_version": 1,
        "sources": sources,
        "machines": machines,
        "mixed_machines": mixed,
        "benchmarks": benchmarks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="BENCH_*.json exports")
    parser.add_argument(
        "--output",
        default="TRAJECTORY.json",
        help="where to write the folded summary (default: TRAJECTORY.json)",
    )
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.inputs]
    for path in paths:
        if not path.is_file():
            parser.error(f"benchmark export not found: {path}")
    document = assemble(paths)
    for name in document["mixed_machines"]:
        print(
            f"warning: {name}: rows come from different machines; "
            "its trajectory mixes hardware with code changes",
            file=sys.stderr,
        )
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    total = sum(len(rows) for rows in document["benchmarks"].values())
    print(
        f"wrote {args.output}: {len(document['benchmarks'])} benchmarks x "
        f"{len(document['sources'])} sources ({total} medians)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
