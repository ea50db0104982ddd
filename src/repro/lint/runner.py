"""Driver: file discovery, two-phase checking, pragmas, baseline, CLI.

``python -m repro.lint [paths]`` runs every pass family over each
``.py`` file under the given paths (default ``src``), applies inline
pragmas and the committed baseline, and exits non-zero on any new
finding, stale baseline entry, or unparseable file.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint import concurrency, determinism, layers, nativejit, obs
from repro.lint.baseline import load_baseline, partition, write_baseline
from repro.lint.findings import CODES, Finding
from repro.lint.pragmas import is_suppressed, suppressions


def _python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(str(p) for p in sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(str(path))
    return files


def _parse(source: str, path: str) -> Tuple[Optional[ast.Module], List[Finding]]:
    try:
        return ast.parse(source, filename=path), []
    except SyntaxError as error:
        line = error.lineno or 1
        return None, [
            Finding(path, line, "RPL001", f"file does not parse: {error.msg}")
        ]


def lint_source(source: str, path: str) -> List[Finding]:
    """All findings for one in-memory module, pragmas already applied."""
    tree, errors = _parse(source, path)
    if tree is None:
        return errors
    findings: List[Finding] = []
    findings.extend(layers.check(tree, path))
    findings.extend(nativejit.check(tree, path))
    findings.extend(concurrency.check(tree, path))
    findings.extend(determinism.check(tree, path))
    findings.extend(obs.check(tree, path))
    table = suppressions(source)
    kept = [
        finding
        for finding in findings
        if not is_suppressed(table, finding.line, finding.code)
    ]
    return sorted(kept)


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every python file under ``paths``."""
    findings: List[Finding] = []
    for path in _python_files(paths):
        source = Path(path).read_text(encoding="utf-8")
        findings.extend(lint_source(source, path))
    return sorted(findings)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="repo-specific architecture & concurrency linter",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--baseline",
        default="lint-baseline.txt",
        help="baseline file of grandfathered fingerprints",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline (report everything)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--list-codes", action="store_true", help="print the code table"
    )
    return parser


def _emit_text(
    new: List[Finding], grandfathered: List[Finding], stale: List[str]
) -> None:
    for finding in new:
        print(finding.render())
    for fingerprint in stale:
        print(f"stale baseline entry (fix landed? remove it): {fingerprint}")
    total = len(new) + len(stale)
    suppressed = f", {len(grandfathered)} baselined" if grandfathered else ""
    print(f"repro-lint: {total} problem(s){suppressed}")


def _emit_json(
    new: List[Finding], grandfathered: List[Finding], stale: List[str]
) -> None:
    print(
        json.dumps(
            {
                "findings": [vars(finding) for finding in new],
                "baselined": [vars(finding) for finding in grandfathered],
                "stale_baseline": stale,
            },
            indent=2,
            sort_keys=True,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = _build_parser().parse_args(argv)
    if options.list_codes:
        for code in sorted(CODES):
            print(f"{code}  {CODES[code]}")
        return 0
    findings = lint_paths(options.paths)
    if options.write_baseline:
        write_baseline(options.baseline, findings)
        print(
            f"repro-lint: wrote {len(findings)} fingerprint(s) "
            f"to {options.baseline}"
        )
        return 0
    baseline = set() if options.no_baseline else load_baseline(options.baseline)
    new, grandfathered, stale = partition(findings, baseline)
    if options.fmt == "json":
        _emit_json(new, grandfathered, stale)
    else:
        _emit_text(new, grandfathered, stale)
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
