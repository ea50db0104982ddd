"""Operations scenario: ROI-weighted tracking with checkpoints and analysis.

Combines the library's extension hooks in one realistic deployment story:

* the objective is *weighted* reachability — premium users count 20x —
  which is the paper's "define your own f_t" hook (any normalized
  monotone submodular spread keeps every guarantee);
* the tracker checkpoints its state periodically (crash recovery);
* solution churn is quantified with the stability metrics, comparing the
  plain and weighted objectives on the same stream.

Run:
    python examples/weighted_roi_tracking.py
"""

import tempfile
from pathlib import Path

from repro import (
    GeometricLifetime,
    HistApprox,
    InfluenceOracle,
    MemoryStream,
    SolutionHistory,
    TDNGraph,
    retweet_stream,
    save_checkpoint,
)

K = 5
PREMIUM_WEIGHT = 20.0


def roi_oracle(graph, premium):
    """The ROI objective: a ``weighted_sum`` oracle, premium users 20x.

    Direct oracle construction is the power-user path (the facade
    spelling is ``open_tracker(semantics=Semantics.WEIGHTED_SUM,
    weights=...)``); this example wires it into HistApprox by hand on
    purpose.
    """
    return InfluenceOracle(
        graph,
        semantics="weighted_sum",
        weights=lambda node: PREMIUM_WEIGHT if node in premium else 1.0,
    )


def main() -> None:
    events = retweet_stream(num_users=300, num_events=500, seed=51)
    # Every 9th user is a premium account worth 20x an ordinary reach.
    premium = {f"u{i}" for i in range(0, 300, 9)}
    policy = GeometricLifetime(0.02, 150, seed=52)

    graph_plain, graph_weighted = TDNGraph(), TDNGraph()
    plain = HistApprox(K, 0.2, graph_plain)
    weighted = HistApprox(K, 0.2, graph_weighted, roi_oracle(graph_weighted, premium))
    plain_history, weighted_history = SolutionHistory(), SolutionHistory()

    checkpoint_path = Path(tempfile.gettempdir()) / "roi_tracker_checkpoint.json"
    for t, batch in MemoryStream(events):
        lifed = [policy.assign(i) for i in batch]
        for graph, algo in ((graph_plain, plain), (graph_weighted, weighted)):
            graph.advance_to(t)
            graph.add_batch(lifed)
            algo.on_batch(t, lifed)
        if t % 25 == 0:
            plain_history.record(t, plain.query().nodes)
            weighted_history.record(t, weighted.query().nodes)
        if t % 200 == 0 and t > 0:
            save_checkpoint(checkpoint_path, graph_weighted, weighted)

    print("plain vs ROI-weighted objective on the same stream")
    plain_solution = plain.query()
    weighted_solution = weighted.query()
    print(f"  plain influencers:    {', '.join(map(str, plain_solution.nodes))}")
    print(f"  weighted influencers: {', '.join(map(str, weighted_solution.nodes))}")
    overlap = set(plain_solution.nodes) & set(weighted_solution.nodes)
    print(f"  overlap: {len(overlap)} of {K}")
    oracle = InfluenceOracle(graph_weighted)
    print(
        f"  premium users reached by weighted pick: "
        f"{len(set(_reached(oracle, weighted_solution.nodes)) & premium)}"
    )
    print(
        f"  premium users reached by plain pick:    "
        f"{len(set(_reached(oracle, plain_solution.nodes)) & premium)}"
    )
    print("\nsolution stability (mean Jaccard between reports)")
    print(f"  plain:    {plain_history.mean_stability():.3f}")
    print(f"  weighted: {weighted_history.mean_stability():.3f}")

    # On restore, re-supply the custom objective: persistence stores graph
    # and sieve state, never objectives or RNGs (see repro.persistence docs).
    # The dict-level round-trip helpers are internal on purpose — the
    # facade spelling is save_checkpoint/load_checkpoint.
    # repro-lint: disable-next=RPL105
    from repro.persistence import (
        algorithm_from_dict,
        algorithm_to_dict,
        graph_from_dict,
        graph_to_dict,
    )

    restored_graph = graph_from_dict(graph_to_dict(graph_weighted))
    restored = algorithm_from_dict(
        algorithm_to_dict(weighted), restored_graph, roi_oracle(restored_graph, premium)
    )
    print(
        f"\ncheckpoint round-trip: restored tracker answers "
        f"value={restored.query().value:.0f} "
        f"(live tracker: {weighted.query().value:.0f})"
    )


def _reached(oracle, seeds):
    # repro-lint: disable-next=RPL105
    from repro.influence.reachability import reachable_set

    return reachable_set(oracle.graph, seeds)


if __name__ == "__main__":
    main()
