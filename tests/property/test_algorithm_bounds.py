"""Property-based approximation-bound tests for the paper's theorems.

Hypothesis generates arbitrary small TDN traces; at every time step the
algorithms' outputs are compared against the brute-force optimum:

* Theorem 2 — SIEVEADN >= (1/2 - eps) OPT on addition-only streams;
* Theorem 4 — BASICREDUCTION >= (1/2 - eps) OPT on general TDNs;
* Theorem 7 — HISTAPPROX >= (1/3 - eps) OPT on general TDNs
  (and >= (1/2 - eps) with head refinement).

These are the paper's headline guarantees; hypothesis hunting for
counterexamples is the strongest evidence the reproduction is faithful.
Every property draws its spread from the folds the oracle offers
(``count``, ``weighted_sum`` with non-negative weights, ``hop_discount``
with ``alpha`` in (0, 1], ``time_decay`` with ``lam`` > 0) and scores
the brute-force optimum with an oracle of the same semantics.  It also
draws the scalar cutover: at ``REPRO_SCALAR_PAIR_LIMIT=0`` every miss
takes the vector and bit-plane sweeps, prefetch riders included, instead
of the per-set walk.

The theorems need ``f_t`` monotone submodular in the seed set, and
Theorems 4 and 7 also need a set's value never to fall while an
instance's stream only adds edges.  ``time_decay`` breaks that premise
(a clock tick, or the first in-edge into a node that had none, lowers
that node's term), so BasicReduction and HistApprox refuse it; where the
draw picks it, their properties check the refusal.  With unbounded
lifetimes every ``time_decay`` term stays 1, so Theorem 2 holds under
all four folds.
"""

import os
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import open_tracker
from repro.core.basic_reduction import BasicReduction
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.errors import SemanticsError
from repro.influence.oracle import InfluenceOracle
from repro.kernels import FOLD_NAMES
from repro.submodular.functions import SpreadFunction
from repro.submodular.greedy import brute_force_optimum
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

NODES = [f"n{i}" for i in range(6)]
MAX_LIFETIME = 5
K = 2
EPS = 0.1


@st.composite
def tdn_trace(draw, infinite_lifetimes=False):
    steps = draw(st.integers(min_value=1, max_value=7))
    trace = []
    for t in range(steps):
        batch = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            u, v = draw(
                st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
                    lambda p: p[0] != p[1]
                )
            )
            if infinite_lifetimes:
                lifetime = None
            else:
                lifetime = draw(st.integers(min_value=1, max_value=MAX_LIFETIME))
            batch.append(Interaction(u, v, t, lifetime))
        trace.append((t, batch))
    return trace


@st.composite
def oracle_specs(draw):
    """``(scalar cutover or None, InfluenceOracle keyword arguments)``."""
    scalar_limit = draw(st.sampled_from([None, "0"]))
    name = draw(st.sampled_from(FOLD_NAMES))
    if name == "weighted_sum":
        weight = st.floats(min_value=0.0, max_value=10.0)
        weights = draw(st.dictionaries(st.sampled_from(NODES), weight))
        return scalar_limit, {"semantics": name, "weights": weights}
    if name == "hop_discount":
        alpha = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
        return scalar_limit, {"semantics": (name, {"alpha": alpha})}
    if name == "time_decay":
        lam = draw(st.floats(min_value=0.0, max_value=10.0, exclude_min=True))
        return scalar_limit, {"semantics": (name, {"lam": lam})}
    return scalar_limit, {"semantics": name}


def new_graph(spec):
    """An empty TDN whose csr engine has the spec's scalar cutover."""
    graph = TDNGraph()
    scalar_limit, _ = spec
    if scalar_limit is not None:
        # The engine reads its cutover once, when the first csr() builds it.
        with mock.patch.dict(os.environ, {"REPRO_SCALAR_PAIR_LIMIT": scalar_limit}):
            graph.csr()
    return graph


def new_oracle(graph, spec):
    return InfluenceOracle(graph, **spec[1])


def horizon_tracker(build, graph, spec):
    """``build(oracle)``, or ``None`` once it refused ``time_decay``."""
    oracle = new_oracle(graph, spec)
    if oracle.semantics == "time_decay":
        with pytest.raises(SemanticsError, match="time_decay"):
            build(oracle)
        return None
    return build(oracle)


def optimum_at(graph, spec):
    return brute_force_optimum(
        SpreadFunction(new_oracle(graph, spec)), sorted(graph.node_set(), key=repr), K
    ).value


@given(trace=tdn_trace(infinite_lifetimes=True), spec=oracle_specs())
@settings(max_examples=50, deadline=None)
def test_sieve_adn_half_bound_on_adns(trace, spec):
    graph = new_graph(spec)
    sieve = SieveADN(K, EPS, graph, new_oracle(graph, spec))
    for t, batch in trace:
        graph.advance_to(t)
        graph.add_batch(batch)
        sieve.on_batch(t, batch)
        optimum = optimum_at(graph, spec)
        if optimum > 0:
            assert sieve.query().value >= (0.5 - EPS) * optimum - 1e-9


@given(trace=tdn_trace(), spec=oracle_specs())
@settings(max_examples=50, deadline=None)
def test_basic_reduction_half_bound_on_tdns(trace, spec):
    graph = new_graph(spec)
    basic = horizon_tracker(
        lambda oracle: BasicReduction(K, EPS, MAX_LIFETIME, graph, oracle), graph, spec
    )
    if basic is None:
        return
    for t, batch in trace:
        graph.advance_to(t)
        graph.add_batch(batch)
        basic.on_batch(t, batch)
        optimum = optimum_at(graph, spec)
        if optimum > 0:
            assert basic.query().value >= (0.5 - EPS) * optimum - 1e-9


@given(trace=tdn_trace(), spec=oracle_specs())
@settings(max_examples=50, deadline=None)
def test_hist_approx_third_bound_on_tdns(trace, spec):
    graph = new_graph(spec)
    hist = horizon_tracker(
        lambda oracle: HistApprox(K, EPS, graph, oracle), graph, spec
    )
    if hist is None:
        return
    for t, batch in trace:
        graph.advance_to(t)
        graph.add_batch(batch)
        hist.on_batch(t, batch)
        optimum = optimum_at(graph, spec)
        if optimum > 0:
            assert hist.query().value >= (1.0 / 3.0 - EPS) * optimum - 1e-9


@given(trace=tdn_trace(), spec=oracle_specs())
@settings(max_examples=40, deadline=None)
def test_hist_approx_refined_half_bound(trace, spec):
    """The paper's Section IV remark: head refinement restores (1/2 - eps)."""
    graph = new_graph(spec)
    hist = horizon_tracker(
        lambda oracle: HistApprox(K, EPS, graph, oracle, refine_head=True),
        graph,
        spec,
    )
    if hist is None:
        return
    for t, batch in trace:
        graph.advance_to(t)
        graph.add_batch(batch)
        hist.on_batch(t, batch)
        optimum = optimum_at(graph, spec)
        if optimum > 0:
            assert hist.query().value >= (0.5 - EPS) * optimum - 1e-9


@given(trace=tdn_trace(), spec=oracle_specs())
@settings(max_examples=40, deadline=None)
def test_solutions_never_exceed_true_optimum(trace, spec):
    """Sanity: no algorithm reports a value above the brute-force optimum."""
    graph = new_graph(spec)
    algorithms = [
        horizon_tracker(
            lambda oracle: BasicReduction(K, EPS, MAX_LIFETIME, graph, oracle),
            graph,
            spec,
        ),
        horizon_tracker(lambda oracle: HistApprox(K, EPS, graph, oracle), graph, spec),
    ]
    if None in algorithms:
        return
    for t, batch in trace:
        graph.advance_to(t)
        graph.add_batch(batch)
        optimum = optimum_at(graph, spec)
        for algorithm in algorithms:
            algorithm.on_batch(t, batch)
            assert algorithm.query().value <= optimum + 1e-9


@given(trace=tdn_trace(), spec=oracle_specs())
@settings(max_examples=40, deadline=None)
def test_solution_sizes_respect_budget(trace, spec):
    graph = new_graph(spec)
    hist = horizon_tracker(
        lambda oracle: HistApprox(K, EPS, graph, oracle), graph, spec
    )
    if hist is None:
        return
    for t, batch in trace:
        graph.advance_to(t)
        graph.add_batch(batch)
        hist.on_batch(t, batch)
        assert len(hist.query().nodes) <= K


@pytest.mark.parametrize("algorithm", ["basic-reduction", "hist-approx"])
def test_facade_refuses_time_decay_for_horizon_trackers(algorithm):
    """Accepting the fold, BasicReduction answered the empty set where OPT
    was 1.0, and HistApprox reported 1.632 for ``{n0}``, its value on a
    horizon-4 instance, where ``f_t({n0})`` was 0.865 (``lam`` = 1)."""
    with pytest.raises(SemanticsError, match="time_decay"):
        open_tracker(algorithm, k=K, L=MAX_LIFETIME, semantics=("time_decay", {"lam": 1.0}))


#: Step 0: ``x`` reaches 19 leaves and ``a`` five ``u_j``; step 1 gives
#: every ``u_j`` ten out-edges, so ``{a}`` grows to 56 while ``{x}`` stays
#: at 20.  The grown node ``a`` is no source of step 1's batch, only an
#: ancestor of its sources.
GROWN_ANCESTOR_TRACE = [
    [Interaction("x", f"y{i}", 0, 10) for i in range(19)]
    + [Interaction("a", f"u{j}", 0, 10) for j in range(5)],
    [Interaction(f"u{j}", f"w{j}_{i}", 1, 10) for j in range(5) for i in range(10)],
]


@pytest.mark.parametrize(
    "build",
    [
        lambda graph, oracle: SieveADN(1, EPS, graph, oracle),
        lambda graph, oracle: BasicReduction(1, EPS, 10, graph, oracle),
        lambda graph, oracle: HistApprox(1, EPS, graph, oracle, refine_head=True),
    ],
    ids=["sieve-adn", "basic-reduction", "hist-approx-refined"],
)
def test_grown_ancestor_of_the_batch_sources_is_a_candidate(build):
    """Theorem 2 needs every node whose spread grew among the candidates.

    Fed only the batch's sources, each tracker kept ``{x}`` = 20 against
    OPT ``{a}`` = 56, a ratio of 0.357 below ``1/2 - eps`` = 0.4.
    """
    graph = TDNGraph()
    oracle = InfluenceOracle(graph)
    tracker = build(graph, oracle)
    for t, batch in enumerate(GROWN_ANCESTOR_TRACE):
        graph.advance_to(t)
        graph.add_batch(batch)
        tracker.on_batch(t, batch)
    optimum = brute_force_optimum(
        SpreadFunction(InfluenceOracle(graph)), sorted(graph.node_set(), key=repr), 1
    )
    assert (optimum.nodes, optimum.value) == (["a"], 56)
    solution = tracker.query()
    assert (solution.nodes, solution.value) == (("a",), 56.0)
