"""Ablation experiments beyond the paper's figures.

These quantify design choices of this reproduction:

* ``head_refinement`` — HISTAPPROX with vs without the (1/2 - eps) head
  refinement the paper sketches in its Section IV remark: quality gained
  vs oracle calls paid.
* ``interchange`` — the interchange-greedy baseline (Song et al.) on a
  bursty stream, quantifying the paper's claim that swap-based maintenance
  degrades under heavy churn while remaining fine on smooth streams.
* ``epsilon_grid`` — solution value and calls across a wide eps sweep,
  exposing the quality/efficiency trade-off curve of Theorems 7/8.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.baselines.interchange import InterchangeGreedy
from repro.datasets.registry import make_stream
from repro.experiments.figures import FigureResult, greedy_factory, hist_factory
from repro.experiments.harness import run_tracking
from repro.experiments.metrics import mean_value_ratio
from repro.tdn.lifetimes import GeometricLifetime


def head_refinement(
    datasets: Sequence[str] = ("brightkite", "twitter-hk"),
    num_events: int = 500,
    k: int = 10,
    epsilon: float = 0.2,
    L: int = 300,
    p: float = 0.01,
    seed: int = 0,
) -> FigureResult:
    """HISTAPPROX head refinement on/off: value gained vs calls paid."""
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        stream = make_stream(dataset, num_events, seed=seed)
        policy = GeometricLifetime(p, L, seed=seed + 1)
        report = run_tracking(
            stream,
            {
                "hist": hist_factory(k, epsilon),
                "hist+refine": hist_factory(k, epsilon, refine_head=True),
                "greedy": greedy_factory(k),
            },
            lifetime_policy=policy,
            query_interval=5,
        )
        greedy = report["greedy"]
        for name in ("hist", "hist+refine"):
            rows.append(
                {
                    "dataset": dataset,
                    "variant": name,
                    "value_ratio": mean_value_ratio(report[name], greedy),
                    "calls": report[name].total_calls,
                }
            )
    return FigureResult(
        figure_id="Ablation: head refinement",
        rows=rows,
        notes="refinement should never lower the value ratio; calls increase",
    )


def interchange(
    datasets: Sequence[str] = ("twitter-higgs", "stackoverflow-c2a"),
    num_events: int = 400,
    k: int = 10,
    epsilon: float = 0.2,
    L: int = 300,
    p: float = 0.01,
    seed: int = 0,
    query_interval: int = 10,
) -> FigureResult:
    """Interchange greedy vs HISTAPPROX on bursty streams.

    The paper argues swap-based maintenance degrades on highly dynamic
    networks; the burst-heavy stand-ins exercise exactly that regime.
    """

    def _interchange_factory(graph):
        return InterchangeGreedy(k, graph)

    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        stream = make_stream(dataset, num_events, seed=seed)
        policy = GeometricLifetime(p, L, seed=seed + 1)
        report = run_tracking(
            stream,
            {
                "hist": hist_factory(k, epsilon),
                "interchange": _interchange_factory,
                "greedy": greedy_factory(k),
            },
            lifetime_policy=policy,
            query_interval=query_interval,
        )
        greedy = report["greedy"]
        for name in ("hist", "interchange"):
            rows.append(
                {
                    "dataset": dataset,
                    "algorithm": name,
                    "value_ratio": mean_value_ratio(report[name], greedy),
                    "calls": report[name].total_calls,
                    "throughput": round(report[name].throughput, 1),
                }
            )
    return FigureResult(
        figure_id="Ablation: interchange greedy",
        rows=rows,
        notes="interchange pays many calls under churn; hist stays cheap",
    )


def epsilon_grid(
    dataset: str = "gowalla",
    num_events: int = 500,
    k: int = 10,
    epsilons: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4),
    L: int = 300,
    p: float = 0.01,
    seed: int = 0,
) -> FigureResult:
    """Quality/efficiency trade-off across a wide eps sweep."""
    stream = make_stream(dataset, num_events, seed=seed)
    policy = GeometricLifetime(p, L, seed=seed + 1)
    algorithms: Dict[str, Callable] = {
        f"hist(eps={eps})": hist_factory(k, eps) for eps in epsilons
    }
    algorithms["greedy"] = greedy_factory(k)
    report = run_tracking(stream, algorithms, lifetime_policy=policy, query_interval=5)
    greedy = report["greedy"]
    rows = [
        {
            "epsilon": eps,
            "value_ratio": mean_value_ratio(report[f"hist(eps={eps})"], greedy),
            "calls": report[f"hist(eps={eps})"].total_calls,
        }
        for eps in epsilons
    ]
    return FigureResult(
        figure_id="Ablation: epsilon grid",
        rows=rows,
        notes="calls should fall and value_ratio drift down as eps grows",
    )
