"""Command-line influential-node tracker.

Turns the library into a usable tool: replay a SNAP-format trace (or a
named synthetic dataset) through any tracking algorithm, print the
influential set at a chosen cadence, and optionally checkpoint the tracker
state for later resumption.

Examples::

    # Track the 10 most influential users in a retweet trace.
    python -m repro.track --input retweets.txt --k 10 --epsilon 0.2 \
        --lifetime-p 0.001 --max-lifetime 1000 --report-every 1000

    # No trace at hand: replay a named synthetic dataset.
    python -m repro.track --dataset twitter-hk --events 2000 --k 5

    # Periodic checkpoints (JSON) for crash recovery.
    python -m repro.track --dataset gowalla --events 1000 \
        --checkpoint state.json --checkpoint-every 500
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.analysis.stability import SolutionHistory
from repro.core.tracker import InfluenceTracker
from repro.datasets.loaders import load_snap_edges
from repro.datasets.registry import dataset_names, make_interactions
from repro.persistence import save_checkpoint
from repro.tdn.lifetimes import ConstantLifetime, GeometricLifetime, InfiniteLifetime
from repro.tdn.stream import BatchedStream


#: The ``--algorithm`` choices :func:`repro.persistence.save_checkpoint`
#: can serialize; ``--checkpoint`` is rejected for the others.
CHECKPOINTABLE = ("hist-approx", "basic-reduction", "sieve-adn")


def positive_int(text: str) -> int:
    """argparse type: an int >= 1 (else a usage error, exit status 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def fraction(text: str) -> float:
    """argparse type: a float strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.track",
        description="Track influential nodes in an interaction stream.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", help="SNAP-format trace: 'source target [timestamp]' lines"
    )
    source.add_argument(
        "--dataset",
        choices=dataset_names(),
        help="replay a named synthetic dataset instead of a file",
    )
    parser.add_argument("--events", type=positive_int, default=2_000,
                        help="events to generate (--dataset) or cap (--input)")
    parser.add_argument("--batch-size", type=positive_int, default=1,
                        help="interactions per time step")
    parser.add_argument("--algorithm", default="hist-approx",
                        choices=["hist-approx", "basic-reduction", "sieve-adn",
                                 "greedy", "random"])
    parser.add_argument("--k", type=positive_int, default=10, help="budget")
    parser.add_argument("--epsilon", type=fraction, default=0.2)
    parser.add_argument("--lifetime", default="geometric",
                        choices=["geometric", "constant", "infinite"],
                        help="lifetime policy family")
    parser.add_argument("--lifetime-p", type=fraction, default=0.01,
                        help="geometric forgetting probability")
    parser.add_argument("--max-lifetime", type=positive_int, default=1_000,
                        help="lifetime cap L (also the constant window W)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="oracle evaluation workers (N > 1 deals spread "
                             "sweeps to up to N threads in whole 64-set "
                             "planes, so a sweep of 64 sets or fewer is one "
                             "shard; memo closures stay on the main thread; "
                             "identical results)")
    parser.add_argument("--report-every", type=positive_int, default=200,
                        help="print the solution every N steps")
    parser.add_argument("--checkpoint", default=None,
                        help="JSON checkpoint path (written periodically)")
    parser.add_argument("--checkpoint-every", type=positive_int, default=1_000)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-step reports; print only the summary")
    parser.add_argument("--metrics", action="store_true",
                        help="enable kernel sweep sampling and print the "
                             "metrics summary after the run")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write the full metrics registry as JSON to "
                             "PATH (implies --metrics)")
    parser.add_argument("--metrics-every", type=positive_int, default=16,
                        help="sample 1 in N kernel sweeps (counter totals "
                             "are rescaled; lower = finer, slower)")
    return parser


def make_policy(args):
    if args.lifetime == "infinite":
        return InfiniteLifetime()
    if args.lifetime == "constant":
        return ConstantLifetime(args.max_lifetime)
    return GeometricLifetime(args.lifetime_p, args.max_lifetime, seed=args.seed + 1)


def load_interactions(args):
    if args.dataset:
        return make_interactions(args.dataset, args.events, seed=args.seed)
    return load_snap_edges(args.input, max_rows=args.events)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.checkpoint and args.algorithm not in CHECKPOINTABLE:
        parser.error(
            f"--checkpoint cannot save --algorithm {args.algorithm}; "
            f"checkpointable algorithms: {', '.join(CHECKPOINTABLE)}"
        )
    interactions = load_interactions(args)
    if not interactions:
        print("no interactions to process", file=sys.stderr)
        return 1
    metrics_enabled = args.metrics or args.metrics_json is not None
    if metrics_enabled:
        # Imported from the kernels layer, not the api facade: track sits
        # below api in the layer DAG (see repro.lint.config.LAYERS).
        from repro.kernels.instrument import enable_kernel_metrics

        enable_kernel_metrics(every=args.metrics_every)
    stream = BatchedStream(interactions, batch_size=args.batch_size)
    tracker = InfluenceTracker(
        args.algorithm,
        k=args.k,
        epsilon=args.epsilon,
        lifetime_policy=make_policy(args),
        L=args.max_lifetime if args.algorithm == "basic-reduction" else None,
        seed=args.seed,
        workers=args.workers,
    )
    history = SolutionHistory()
    started = time.perf_counter()
    solution = None
    try:
        for t, batch in stream:
            solution = tracker.step(t, batch)
            if t % args.report_every == 0:
                history.record(t, solution.nodes)
                if not args.quiet:
                    nodes = ", ".join(str(n) for n in solution.nodes[:8])
                    suffix = "..." if len(solution.nodes) > 8 else ""
                    print(f"t={t:>7}  value={solution.value:>8.0f}  [{nodes}{suffix}]")
            if (
                args.checkpoint
                and t > 0
                and t % args.checkpoint_every == 0
            ):
                save_checkpoint(args.checkpoint, tracker.graph, tracker.algorithm)
        elapsed = time.perf_counter() - started
        if args.checkpoint:
            save_checkpoint(args.checkpoint, tracker.graph, tracker.algorithm)
    finally:
        # Snapshot parallel health before close() halts the executor.
        health = tracker.health_report()
        tracker.close()

    # Imported from the kernels layer, not the api facade: track sits
    # below api in the layer DAG (see repro.lint.config.LAYERS).
    from repro.kernels import native_compile_seconds, resolve_backend

    backend = resolve_backend(None)
    compile_seconds = native_compile_seconds()
    compile_note = (
        f" (compiled in {compile_seconds:.2f}s)"
        if backend == "native" and compile_seconds is not None
        else ""
    )

    print("\nsummary")
    print(f"  events processed:   {len(interactions)}")
    print(f"  kernel backend:     {backend}{compile_note}")
    if args.workers > 1:
        print(f"  evaluation workers: {args.workers}")
        if health is not None:
            state = health["state"]
            reason = health["reason"]
            detail = f" ({reason})" if reason else ""
            print(f"  parallel engine:    {state}{detail}")
            incidents = health.get("incidents") or {}
            if incidents:
                counts = ", ".join(f"{k}={v}" for k, v in incidents.items())
                print(f"  recovered faults:   {counts}")
    print(f"  elapsed:            {elapsed:.1f}s "
          f"({len(interactions) / max(elapsed, 1e-9):.0f} events/s)")
    print(f"  oracle calls:       {tracker.oracle_calls}")
    if solution is not None:
        print(f"  final value:        {solution.value:.0f}")
        print(f"  final influencers:  {', '.join(str(n) for n in solution.nodes)}")
    if len(history) >= 2:
        print(f"  solution stability: {history.mean_stability():.3f} "
              f"(mean Jaccard between consecutive reports)")
    if metrics_enabled:
        from repro.kernels.instrument import disable_kernel_metrics
        from repro.obs.registry import metrics_registry

        registry = metrics_registry()
        if args.metrics_json is not None:
            import json

            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                json.dump(registry.render_json(), handle, indent=2)
                handle.write("\n")
            print(f"\nmetrics written to {args.metrics_json}")
        if args.metrics:
            print("\nmetrics")
            print(registry.render_summary())
        disable_kernel_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
