"""Influence-spread machinery on TDNs.

Implements the paper's influence spread ``f_t(S)`` (Definition 3) — the
number of distinct nodes reachable from ``S`` in ``G_t`` — together with the
changed-node computation that drives SIEVEADN's node stream, and the
independent-cascade (IC) machinery needed by the RR-set baselines (IMM, TIM+,
DIM) the paper compares against.
"""

from repro.influence.reachability import ancestors, reachable_set
from repro.influence.oracle import (
    ORACLE_BACKENDS,
    InfluenceOracle,
    MemoTable,
    top_spreaders,
)
from repro.influence.changed import changed_nodes
from repro.influence.probabilities import (
    WeightedGraphSnapshot,
    interactions_to_probability,
)
from repro.influence.ic_model import estimate_spread_mc, simulate_ic

__all__ = [
    "reachable_set",
    "ancestors",
    "InfluenceOracle",
    "MemoTable",
    "ORACLE_BACKENDS",
    "changed_nodes",
    "interactions_to_probability",
    "WeightedGraphSnapshot",
    "simulate_ic",
    "estimate_spread_mc",
    "top_spreaders",
]
