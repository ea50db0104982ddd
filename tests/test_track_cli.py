"""Tests for the command-line tracker (python -m repro.track)."""

import json

import pytest

from repro.track import build_parser, main


class TestArgumentParsing:
    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_input_and_dataset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--input", "x", "--dataset", "gowalla"])

    def test_defaults(self):
        args = build_parser().parse_args(["--dataset", "gowalla"])
        assert args.algorithm == "hist-approx"
        assert args.k == 10
        assert args.lifetime == "geometric"


class TestDatasetRuns:
    def test_synthetic_run(self, capsys):
        code = main([
            "--dataset", "twitter-hk", "--events", "150",
            "--k", "3", "--report-every", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "summary" in out
        assert "oracle calls" in out
        assert "final influencers" in out

    def test_quiet_mode(self, capsys):
        main([
            "--dataset", "gowalla", "--events", "100",
            "--k", "2", "--quiet",
        ])
        out = capsys.readouterr().out
        assert "t=" not in out.split("summary")[0]

    @pytest.mark.parametrize(
        "algorithm", ["hist-approx", "basic-reduction", "sieve-adn", "greedy", "random"]
    )
    def test_all_algorithms_run(self, algorithm, capsys):
        args = [
            "--dataset", "brightkite", "--events", "60",
            "--algorithm", algorithm, "--k", "2", "--quiet",
            "--max-lifetime", "50",
        ]
        if algorithm == "sieve-adn":
            args += ["--lifetime", "infinite"]
        assert main(args) == 0

    def test_constant_lifetime(self, capsys):
        assert main([
            "--dataset", "gowalla", "--events", "80", "--k", "2",
            "--lifetime", "constant", "--max-lifetime", "20", "--quiet",
        ]) == 0


class TestFileInput:
    def test_snap_file_run(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        lines = [f"u{i % 5} v{i % 7} {i}" for i in range(50)]
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "--input", str(path), "--k", "2", "--quiet",
            "--max-lifetime", "30",
        ])
        assert code == 0
        assert "events processed:   50" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert main(["--input", str(path), "--quiet"]) == 1


class TestCheckpointing:
    def test_checkpoint_written_and_loadable(self, tmp_path, capsys):
        checkpoint = tmp_path / "state.json"
        main([
            "--dataset", "twitter-hk", "--events", "120", "--k", "2",
            "--checkpoint", str(checkpoint), "--checkpoint-every", "50",
            "--quiet", "--max-lifetime", "60",
        ])
        assert checkpoint.exists()
        payload = json.loads(checkpoint.read_text())
        assert payload["algorithm"]["type"] == "HistApprox"
        from repro.persistence import load_checkpoint

        graph, algorithm = load_checkpoint(checkpoint)
        assert algorithm.query().value >= 0.0


    @pytest.mark.parametrize("algorithm", ["greedy", "random"])
    def test_unsavable_algorithm_rejected_at_parse(
        self, algorithm, tmp_path, capsys
    ):
        checkpoint = tmp_path / "state.json"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "--dataset", "twitter-hk", "--events", "200",
                "--algorithm", algorithm, "--checkpoint", str(checkpoint),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "hist-approx, basic-reduction, sieve-adn" in err
        assert not checkpoint.exists()


#: One out-of-range value per numeric flag, and the usage error it gets.
BAD_NUMBERS = [
    ("--events", "0", "must be >= 1, got 0"),
    ("--k", "0", "must be >= 1, got 0"),
    ("--batch-size", "0", "must be >= 1, got 0"),
    ("--max-lifetime", "-3", "must be >= 1, got -3"),
    ("--epsilon", "1.5", "must be in (0, 1), got 1.5"),
    ("--lifetime-p", "0", "must be in (0, 1), got 0.0"),
    ("--workers", "0", "must be >= 1, got 0"),
    ("--report-every", "0", "must be >= 1, got 0"),
    ("--checkpoint-every", "-1", "must be >= 1, got -1"),
    ("--metrics-every", "0", "must be >= 1, got 0"),
]


class TestNumericFlags:
    @pytest.mark.parametrize(
        "flag, value, message", BAD_NUMBERS, ids=[flag for flag, *_ in BAD_NUMBERS]
    )
    def test_out_of_range_value_is_a_usage_error(
        self, flag, value, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["--dataset", "gowalla", "--quiet", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: {message}" in err


class TestWorkersFlag:
    def test_workers_default_is_serial(self):
        args = build_parser().parse_args(["--dataset", "gowalla"])
        assert args.workers == 1

    def test_sharded_run_matches_serial_run(self, capsys):
        """The CLI produces identical output fields with --workers 2."""
        argv = [
            "--dataset", "twitter-hk", "--events", "120",
            "--k", "3", "--algorithm", "sieve-adn", "--quiet",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        sharded_out = capsys.readouterr().out
        pick = lambda text, field: [  # noqa: E731 - tiny local helper
            line for line in text.splitlines() if field in line
        ]
        for field in ("oracle calls", "final value", "final influencers"):
            assert pick(sharded_out, field) == pick(serial_out, field)
        assert "evaluation workers: 2" in sharded_out
        assert "parallel engine:    sharded" in sharded_out

    def test_failed_shard_prints_incident_counts(self, capsys, monkeypatch):
        """A shard failure is reported as an incident; the run stays sharded."""
        monkeypatch.setenv("REPRO_FAULTS", "shard=1")
        with pytest.warns(RuntimeWarning, match="THREAD_ERROR"):
            code = main([
                "--dataset", "gowalla", "--events", "600", "--batch-size", "50",
                "--workers", "2", "--seed", "1", "--quiet",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "parallel engine:    sharded" in out
        assert "  recovered faults:   THREAD_ERROR=1\n" in out
        assert "recoveries" not in out
