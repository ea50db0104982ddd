"""Unit tests for the CI perf-trajectory assembler."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "assemble_trajectory", REPO_ROOT / "benchmarks" / "assemble_trajectory.py"
)
assemble_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(assemble_trajectory)


def write_export(path, names_to_median, extra_info=None, machine_info=None):
    payload = {
        "machine_info": machine_info or {},
        "benchmarks": [
            {
                "name": name,
                "stats": {"median": median},
                "extra_info": extra_info or {},
            }
            for name, median in names_to_median.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


class TestAssemble:
    def test_folds_per_source_medians_per_benchmark(self, tmp_path):
        write_export(tmp_path / "BENCH_pr1_micro.json", {"a": 1.0, "b": 2.0})
        write_export(
            tmp_path / "BENCH_pr2_micro.json", {"a": 0.5}, {"speedup": 4.0}
        )
        document = assemble_trajectory.assemble(
            [tmp_path / "BENCH_pr2_micro.json", tmp_path / "BENCH_pr1_micro.json"]
        )
        assert document["sources"] == ["pr1_micro", "pr2_micro"]  # label-sorted
        assert [row["median_seconds"] for row in document["benchmarks"]["a"]] == [
            1.0,
            0.5,
        ]
        assert document["benchmarks"]["a"][1]["extra_info"] == {"speedup": 4.0}
        assert [row["source"] for row in document["benchmarks"]["b"]] == ["pr1_micro"]

    def test_sources_sort_naturally_past_single_digits(self, tmp_path):
        for label in ("pr10", "pr2", "pr1"):
            write_export(tmp_path / f"BENCH_{label}_micro.json", {"a": 1.0})
        document = assemble_trajectory.assemble(list(tmp_path.glob("BENCH_*.json")))
        assert document["sources"] == ["pr1_micro", "pr2_micro", "pr10_micro"]

    def test_flags_benchmarks_measured_on_mixed_machines(self, tmp_path):
        box = {
            "machine": "x86_64",
            "python_version": "3.11.7",
            "cpu": {"brand_raw": "Xeon", "count": 2},
        }
        bigger = {**box, "cpu": {"brand_raw": "Xeon", "count": 8}}
        write_export(tmp_path / "BENCH_pr1.json", {"a": 1.0, "b": 1.0}, None, box)
        write_export(tmp_path / "BENCH_pr2.json", {"a": 1.0}, None, box)
        write_export(tmp_path / "BENCH_pr3.json", {"b": 1.0}, None, bigger)
        document = assemble_trajectory.assemble(list(tmp_path.glob("BENCH_*.json")))
        assert document["machines"]["pr1"] == {
            "machine": "x86_64",
            "python_version": "3.11.7",
            "cpu.brand_raw": "Xeon",
            "cpu.count": 2,
        }
        assert document["machines"]["pr3"]["cpu.count"] == 8
        # "a" ran on one box twice; "b" spans the 2-core and 8-core boxes.
        assert document["mixed_machines"] == ["b"]

    def test_warns_about_mixed_machines(self, tmp_path, capsys):
        inputs = []
        for label, machine in (("pr1", "x86_64"), ("pr2", "arm64")):
            path = tmp_path / f"BENCH_{label}.json"
            write_export(path, {"a": 1.0}, None, {"machine": machine})
            inputs.append(str(path))
        output = str(tmp_path / "TRAJECTORY.json")
        assert assemble_trajectory.main(inputs + ["--output", output]) == 0
        err = capsys.readouterr().err
        assert "warning: a: rows come from different machines" in err

    def test_rejects_non_benchmark_json(self, tmp_path):
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text(json.dumps({"totally": "unrelated"}))
        with pytest.raises(ValueError, match="pytest-benchmark"):
            assemble_trajectory.assemble([bogus])

    def test_rejects_empty_input_list(self):
        with pytest.raises(ValueError, match="no benchmark exports"):
            assemble_trajectory.assemble([])

    def test_checked_in_snapshots_assemble(self):
        """The real benchmarks/results series must stay loadable."""
        snapshots = sorted((REPO_ROOT / "benchmarks" / "results").glob("BENCH_*.json"))
        assert snapshots, "benchmarks/results should hold per-PR snapshots"
        document = assemble_trajectory.assemble(snapshots)
        assert len(document["sources"]) == len(snapshots)
        assert document["benchmarks"]
        assert set(document["machines"]) == set(document["sources"])


class TestCli:
    def test_writes_output_document(self, tmp_path, capsys):
        export = write_export(tmp_path / "BENCH_x.json", {"a": 1.5})
        output = tmp_path / "TRAJECTORY.json"
        rc = assemble_trajectory.main([str(export), "--output", str(output)])
        assert rc == 0
        document = json.loads(output.read_text())
        assert document["format_version"] == 1
        assert document["benchmarks"]["a"][0]["median_seconds"] == 1.5
        assert "wrote" in capsys.readouterr().out

    def test_missing_input_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            assemble_trajectory.main([str(tmp_path / "BENCH_absent.json")])
