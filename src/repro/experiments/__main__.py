"""CLI: regenerate any paper artifact.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig7 --events 600 --seed 0
    python -m repro.experiments fig8 --datasets brightkite gowalla
    python -m repro.experiments all --events 300   # quick full sweep

Every runner prints the rows the corresponding paper figure plots; see
EXPERIMENTS.md for the recorded paper-versus-measured comparison.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.experiments import ablations, figures, figures_baselines

RUNNERS: Dict[str, Callable] = {
    "table1": figures.table1,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "fig12": figures.fig12,
    "fig13": figures_baselines.fig13,
    "fig14": figures_baselines.fig14,
    "ablation-head": ablations.head_refinement,
    "ablation-interchange": ablations.interchange,
    "ablation-epsilon": ablations.epsilon_grid,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures at reduced scale.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(RUNNERS) + ["all"],
        help="which artifact to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--events", type=int, default=None, help="stream length override"
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--datasets", nargs="+", default=None, help="dataset subset override"
    )
    parser.add_argument(
        "--markdown",
        default=None,
        help="also write the results as a Markdown report to this path",
    )
    args = parser.parse_args(argv)

    names = sorted(RUNNERS) if args.artifact == "all" else [args.artifact]
    collected = []
    for name in names:
        runner = RUNNERS[name]
        kwargs = {}
        if args.events is not None:
            kwargs["num_events"] = args.events
        if args.seed is not None and name != "table1":
            kwargs["seed"] = args.seed
        if args.datasets is not None and _accepts(runner, "datasets"):
            kwargs["datasets"] = args.datasets
        if name == "table1":
            kwargs = {"num_events": args.events or 2000, "seed": args.seed}
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        print(result.format_table())
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        collected.append((name, result, elapsed))
    if args.markdown:
        from repro.experiments.report import write_report

        sections = write_report(args.markdown, collected)
        print(f"[wrote {sections} sections to {args.markdown}]")
    return 0


def _accepts(runner: Callable, parameter: str) -> bool:
    import inspect

    return parameter in inspect.signature(runner).parameters


if __name__ == "__main__":
    sys.exit(main())
