"""Baseline semantics, CLI behaviour, and the no-drift meta-test."""

from __future__ import annotations

import json
import pathlib

from repro.lint import lint_paths, load_baseline, write_baseline
from repro.lint.baseline import partition
from repro.lint.findings import CODES, Finding
from repro.lint.runner import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_BAD = "import random\n"
_BAD_PATH = "src/repro/core/fixture.py"


def _bad_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    target = tmp_path / _BAD_PATH
    target.parent.mkdir(parents=True)
    target.write_text(_BAD, encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# Baseline round trip
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    finding = Finding("src/repro/core/x.py", 3, "RPL402", "random use")
    baseline_file = tmp_path / "baseline.txt"
    write_baseline(str(baseline_file), [finding])
    loaded = load_baseline(str(baseline_file))
    assert loaded == {finding.fingerprint()}
    # Comment lines in the written file are ignored on load.
    assert baseline_file.read_text().startswith("#")


def test_partition_suppresses_and_reports_stale():
    live = Finding("a.py", 1, "RPL402", "m")
    fresh = Finding("b.py", 2, "RPL401", "n")
    gone_fingerprint = "RPL203|c.py|old"
    baseline = {live.fingerprint(), gone_fingerprint}
    new, grandfathered, stale = partition([live, fresh], baseline)
    assert new == [fresh]
    assert grandfathered == [live]
    assert stale == [gone_fingerprint]


def test_baseline_is_line_number_free():
    moved = Finding("a.py", 99, "RPL402", "m")
    baseline = {Finding("a.py", 1, "RPL402", "m").fingerprint()}
    new, grandfathered, stale = partition([moved], baseline)
    assert not new and not stale and grandfathered == [moved]


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.txt")) == set()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    target = _bad_tree(tmp_path)
    baseline = tmp_path / "baseline.txt"
    assert main([str(target), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "RPL402" in out and "1 problem(s)" in out

    # Grandfather it, then the same run is clean...
    assert main([str(target), "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main([str(target), "--baseline", str(baseline)]) == 0
    # ...but --no-baseline still reports it.
    assert main([str(target), "--baseline", str(baseline), "--no-baseline"]) == 1


def test_cli_stale_baseline_entry_fails(tmp_path, capsys):
    target = _bad_tree(tmp_path)
    baseline = tmp_path / "baseline.txt"
    main([str(target), "--baseline", str(baseline), "--write-baseline"])
    capsys.readouterr()
    target.write_text("x = 1\n", encoding="utf-8")  # fix lands
    assert main([str(target), "--baseline", str(baseline)]) == 1
    assert "stale baseline entry" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    target = _bad_tree(tmp_path)
    code = main([str(target), "--format", "json", "--no-baseline"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stale_baseline"] == []
    assert payload["baselined"] == []
    [finding] = payload["findings"]
    assert finding["code"] == "RPL402"
    assert finding["path"].endswith("fixture.py")
    assert finding["line"] == 1


def test_cli_list_codes(capsys):
    assert main(["--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in CODES:
        assert code in out


def test_architecture_error_code_table_matches_registry():
    """ARCHITECTURE.md's "Error codes" table lists exactly ``CODES``.

    Both ways: a retired rule may not linger in the table, and a new
    rule may not ship undocumented.
    """
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text.split("### Error codes", 1)[1].split("\n#", 1)[0]
    documented = {
        line.split("|")[1].strip()
        for line in section.splitlines()
        if line.startswith("| RPL")
    }
    assert documented == set(CODES)


# ----------------------------------------------------------------------
# No drift: the committed baseline matches a fresh run over src/
# ----------------------------------------------------------------------
def test_checked_in_baseline_matches_fresh_run():
    """CI's gate, as a test: src lints clean against the committed baseline.

    Any new finding (or any stale grandfathered entry) fails here first,
    with the same fingerprints the CLI would print.
    """
    findings = lint_paths([str(REPO_ROOT / "src")])
    baseline = load_baseline(str(REPO_ROOT / "lint-baseline.txt"))
    normalized = [
        Finding(
            str(pathlib.Path(f.path).relative_to(REPO_ROOT)),
            f.line,
            f.code,
            f.message,
        )
        for f in findings
    ]
    new, _, stale = partition(normalized, baseline)
    assert not new, "new findings: " + "; ".join(f.render() for f in new)
    assert not stale, "stale baseline entries: " + "; ".join(stale)
