"""Time the kernel's scalar path against its vector/bit-plane paths.

Builds ``gowalla`` graphs in steady state at several alive-pair counts
(batches of 50 interactions per step, geometric lifetimes with
``p = 50 / pairs``) and, on each, times two fresh engines forced onto
one path each (``DeltaCSR(graph, scalar_pair_limit=...)``) over two
query shapes:

* ``single``: one singleton seed set per call (``reachable_count``);
* ``batch24``: 24 sets of 5 nodes per call (``spread_counts``).

Prints one row per size with microseconds per set, best of ``--repeats``.
Both paths return identical values (checked here), so the table says
only where the cutover costs time.  Run from the repo root::

    PYTHONPATH=src python benchmarks/cutover_crossover.py
"""

import argparse
import random
import time

from repro.datasets.registry import make_interactions
from repro.tdn.csr import DeltaCSR
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import GeometricLifetime

BATCH = 50


def steady_graph(target_pairs: int, seed: int) -> TDNGraph:
    """A gowalla graph run to about ``target_pairs`` alive pairs."""
    p = BATCH / target_pairs
    steps = int(3 / p)
    policy = GeometricLifetime(p, 100_000, seed=seed)
    events = make_interactions("gowalla", steps * BATCH, seed=seed)
    graph = TDNGraph()
    for t in range(steps):
        graph.advance_to(t)
        batch = events[t * BATCH : (t + 1) * BATCH]
        graph.add_batch(
            Interaction(i.source, i.target, t, policy.draw(i)) for i in batch
        )
    return graph


def best_us(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pairs", type=int, nargs="+", default=[1000, 2000, 5000, 10000, 20000]
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    print("pairs    single s/v (us/set)   batch24 s/b (us/set)")
    for target in args.pairs:
        graph = steady_graph(target, args.seed)
        rng = random.Random(args.seed)
        alive = sorted(graph.node_id(node) for node in graph.node_set())
        singles = [[rng.choice(alive)] for _ in range(24)]
        sets = [rng.sample(alive, 5) for _ in range(24)]
        scalar = DeltaCSR(graph, scalar_pair_limit=10**9, backend="python")
        vector = DeltaCSR(graph, scalar_pair_limit=0, backend="python")
        row = [f"{graph.num_pairs:6d}"]
        for shape, run, per in (
            ("single", lambda e: [e.reachable_count(s) for s in singles], 24),
            ("batch24", lambda e: e.spread_counts(sets), 24),
        ):
            assert run(scalar) == run(vector), shape
            row.append(
                f"{best_us(lambda: run(scalar), args.repeats) / per:10.1f}"
                f" {best_us(lambda: run(vector), args.repeats) / per:10.1f}"
            )
        print("   ".join(row))


if __name__ == "__main__":
    main()
