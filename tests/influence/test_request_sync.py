"""How often a request syncs the CSR engine.

The oracle decides how to evaluate a request's misses (a per-set walk
below the scalar cutover, else a shared sweep) at the request's first
miss, so a request that only hits never touches ``TDNGraph.csr``.
"""

import pytest

from repro.influence.oracle import InfluenceOracle
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

SETS = [["hub"], ["hub", "leaf0"], ["leaf1"], ["hub"]]


def star_oracle():
    graph = TDNGraph()
    for i in range(4):
        graph.add_interaction(Interaction("hub", f"leaf{i}", 0, 10))
    return graph, InfluenceOracle(graph)


@pytest.fixture
def csr_calls(monkeypatch):
    calls = []
    original = TDNGraph.csr

    def counting(self, *args, **kwargs):
        calls.append(self.version)
        return original(self, *args, **kwargs)

    def install():
        monkeypatch.setattr(TDNGraph, "csr", counting)
        return calls

    return install


@pytest.mark.parametrize("scalar_limit", [None, "0"])
def test_all_hit_request_syncs_no_engine(monkeypatch, csr_calls, scalar_limit):
    if scalar_limit is not None:
        monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", scalar_limit)
    graph, oracle = star_oracle()
    values = oracle.spread_many(SETS)
    assert values == [5, 5, 1, 5]
    calls = csr_calls()
    version = graph.version
    assert oracle.spread_many(SETS) == values
    assert oracle.spread(["hub", "leaf0"]) == 5
    assert oracle.calls == 3
    assert graph.version == version
    assert calls == []


@pytest.mark.parametrize("scalar_limit", [None, "0"])
def test_a_miss_resolves_the_evaluation_once(monkeypatch, csr_calls, scalar_limit):
    if scalar_limit is not None:
        monkeypatch.setenv("REPRO_SCALAR_PAIR_LIMIT", scalar_limit)
    graph, oracle = star_oracle()
    oracle.spread_many(SETS)
    calls = csr_calls()
    # Hits first, then two misses: the per-set walk is resolved at the
    # first miss, and the sweep path syncs once more to evaluate.
    assert oracle.spread_many(SETS + [["leaf2"], ["leaf3"]]) == [5, 5, 1, 5, 1, 1]
    assert oracle.calls == 5
    assert len(calls) == (1 if scalar_limit is None else 2)
