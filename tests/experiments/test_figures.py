"""Smoke tests for the figure runners (tiny scale, shape assertions)."""

import pytest

from repro.experiments import ablations, figures, figures_baselines


class TestTable1:
    def test_rows_and_formatting(self):
        result = figures.table1(num_events=100, seed=0)
        assert len(result.rows) == 6
        text = result.format_table()
        assert "brightkite" in text
        assert "Table I" in text


class TestFig7:
    def test_shape(self):
        result = figures.fig7(
            datasets=("brightkite",),
            num_events=120,
            L=60,
            p_values=(0.01, 0.05),
            seed=0,
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["value_ratio"] > 0.7
            assert row["calls_ratio"] < 1.0
        # BASIC's calls decrease as p grows (the paper's key efficiency
        # observation).
        assert result.rows[1]["calls_basic"] < result.rows[0]["calls_basic"]


class TestQualityFigures:
    def test_fig8_ordering(self):
        result = figures.fig8(
            datasets=("twitter-hk",), num_events=150, L=80, p=0.02, seed=0,
            epsilons=(0.2,),
        )
        by_algo = {row["algorithm"]: row["mean_value"] for row in result.rows}
        assert by_algo["greedy"] >= by_algo["hist(eps=0.2)"] - 1e-9
        assert by_algo["hist(eps=0.2)"] > by_algo["random"]

    def test_fig9_ratios_bounded(self):
        result = figures.fig9(
            datasets=("brightkite",), num_events=150, L=80, p=0.02, seed=0,
            epsilons=(0.1, 0.3),
        )
        row = result.rows[0]
        assert 0.5 < row["ratio(eps=0.1)"] <= 1.0 + 1e-9
        assert 0.5 < row["ratio(eps=0.3)"] <= 1.0 + 1e-9

    def test_fig10_calls_ratio_below_one(self):
        result = figures.fig10(
            datasets=("gowalla",), num_events=150, L=80, p=0.02, seed=0,
            epsilons=(0.2,),
        )
        assert result.rows[0]["final_calls_ratio"] < 1.0


class TestParameterSweeps:
    def test_fig11_rows(self):
        result = figures.fig11(
            datasets=("brightkite",), num_events=120, k_values=(5, 10),
            L=60, p=0.02, seed=0,
        )
        assert [row["k"] for row in result.rows] == [5, 10]
        for row in result.rows:
            assert row["value_ratio"] > 0.5

    def test_fig12_rows(self):
        result = figures.fig12(
            datasets=("brightkite",), num_events=120, L_values=(40, 80),
            p=0.02, seed=0,
        )
        assert [row["L"] for row in result.rows] == [40, 80]


class TestBaselineFigures:
    def test_fig13_rows(self):
        result = figures_baselines.fig13(
            datasets=("twitter-higgs",), num_events=120,
            k_values=(5,), L_values=(60,), k_fixed=5, L_fixed=60,
            p=0.02, seed=0, query_interval=30,
        )
        assert len(result.rows) == 2  # one k row + one L row
        for row in result.rows:
            for name in ("hist", "imm", "tim+", "dim"):
                assert 0.0 <= row[f"ratio_{name}"] <= 1.5

    def test_fig14_rows(self):
        result = figures_baselines.fig14(
            datasets=("twitter-higgs",), num_events=80,
            k_values=(5,), L_values=(60,), k_fixed=5, L_fixed=60,
            p=0.02, seed=0, query_interval=2,
        )
        for row in result.rows:
            for name in ("hist", "greedy", "dim", "imm", "tim+"):
                assert row[f"tput_{name}"] > 0


class TestAblations:
    def test_head_refinement(self):
        result = ablations.head_refinement(
            datasets=("brightkite",), num_events=100, L=60, p=0.02, seed=0
        )
        by_variant = {row["variant"]: row for row in result.rows}
        assert (
            by_variant["hist+refine"]["value_ratio"]
            >= by_variant["hist"]["value_ratio"] - 0.05
        )

    def test_epsilon_grid_monotone_calls(self):
        result = ablations.epsilon_grid(
            dataset="gowalla", num_events=100, L=60, p=0.02, seed=0,
            epsilons=(0.1, 0.4),
        )
        calls = [row["calls"] for row in result.rows]
        assert calls[-1] <= calls[0]


class TestCLI:
    def test_main_runs_table1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1", "--events", "50"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
