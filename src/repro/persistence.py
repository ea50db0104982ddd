"""Checkpointing: serialize and restore tracker state.

A production tracker runs for weeks; being able to snapshot it (graph +
algorithm state) and resume after a restart is table stakes.  This module
round-trips the TDN graph and each of the paper's algorithms through plain
JSON-able dictionaries:

* the graph serializes as ``(time, [source, target, expiry] rows)`` —
  expiry (not arrival time) is the only temporal attribute the TDN needs —
  plus the node interning table in id order: dense ids are part of the
  graph's identity (the CSR engine indexes by them and the changed-node
  sweep orders candidates by them), so a restored graph must intern
  every node at its original id even if the node's edges have expired;
* a SIEVEADN instance serializes its threshold grid (delta + per-exponent
  sieve sets with their cached values) and horizon;
* BASICREDUCTION / HISTAPPROX serialize their horizon-keyed instances;
* every algorithm payload carries its oracle's *configuration* (backend,
  cache bound, sharded-executor worker count, semantics) — not the memo
  contents, which are a pure cache, nor the executor's thread pool,
  which is runtime state started lazily — so a restored run keeps the same
  evaluation engine, parallelism and influence arithmetic.  Node weights
  are not configuration (they may be a callable): a ``weighted_sum``
  checkpoint restores only with the weighted oracle injected.

Restoring reconnects everything to a freshly rebuilt graph and a fresh
oracle; resumed runs produce *identical solutions and spread values* to
uninterrupted ones (verified in ``tests/test_persistence.py``).  Oracle
*call counts* after a restore can exceed the uninterrupted run's: the memo
table restarts cold (it is deliberately not serialized) and re-pays
evaluations the warm table would have retained, until it re-warms.

Node labels must be JSON-compatible (strings, numbers); the loader refuses
graphs whose serialized labels would not round-trip.  This applies to
*every node the graph has ever seen*, not just currently-alive endpoints:
the interning table must round-trip in full, or restored dense ids (and
with them the deterministic changed-node ordering) would silently diverge
from the original run.

Randomized components (lifetime policies, the Random baseline, RR-set
samplers) are intentionally *not* serialized: RNG state is not portable
across Python versions, and the caller re-supplies policies on restore.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.basic_reduction import BasicReduction
from repro.errors import PersistenceError, UnsupportedCheckpointError
from repro.core.hist_approx import HistApprox
from repro.core.sieve_adn import SieveADN
from repro.core.thresholds import SieveSet, ThresholdSet
from repro.influence.oracle import InfluenceOracle
from repro.kernels import resolve_fold
from repro.tdn.batch import EdgeBatch
from repro.tdn.graph import INFINITE_EXPIRY, TDNGraph

_FORMAT_VERSION = 1
_JSONABLE_LABEL_TYPES = (str, int, float)


# ----------------------------------------------------------------------
# Graph
# ----------------------------------------------------------------------
def graph_to_dict(graph: TDNGraph) -> Dict:
    """Serialize the alive graph (labels must be JSON-compatible)."""
    edges = []
    for u, nbrs_pair in graph._out.items():  # noqa: SLF001 - own module
        for v, pair in nbrs_pair.items():
            _check_label(u)
            _check_label(v)
            for expiry, multiplicity in pair.expiries.items():
                serialized_expiry = None if expiry == INFINITE_EXPIRY else int(expiry)
                for _ in range(multiplicity):
                    edges.append([u, v, serialized_expiry])
    for node in graph._id_nodes:  # noqa: SLF001 - own module
        _check_label(node)
    return {
        "format_version": _FORMAT_VERSION,
        "type": "TDNGraph",
        "time": graph.time,
        "interned": list(graph._id_nodes),  # noqa: SLF001 - own module
        "edges": edges,
    }


def graph_from_dict(payload: Dict) -> TDNGraph:
    """Rebuild a graph serialized by :func:`graph_to_dict`.

    The interning table is restored first so every node keeps its original
    dense id (checkpoints from before the table was serialized fall back
    to replay-order interning).  The CSR maintenance-mode field older
    versions wrote is ignored: the engine has one maintenance policy.
    """
    _check_payload(payload, "TDNGraph")
    graph = TDNGraph(start_time=payload["time"])
    for node in payload.get("interned", ()):
        graph._intern(node)  # noqa: SLF001 - own module
    edges = payload["edges"]
    graph.add_batch(
        EdgeBatch(
            payload["time"],
            [u for u, _, _ in edges],
            [v for _, v, _ in edges],
            [math.inf if expiry is None else int(expiry) for _, _, expiry in edges],
        )
    )
    return graph


# ----------------------------------------------------------------------
# Oracle configuration
# ----------------------------------------------------------------------
def _maybe_oracle_to_dict(oracle) -> Optional[Dict]:
    """Config dict for real oracles; ``None`` for duck-typed stand-ins."""
    if isinstance(oracle, InfluenceOracle):
        return oracle_to_dict(oracle)
    return None


def oracle_to_dict(oracle: InfluenceOracle) -> Dict:
    """Serialize an oracle's configuration (never its memo contents).

    ``workers`` records the sharded-executor thread count so a restored
    run keeps its parallel evaluation setup; the thread pool itself is
    runtime state and is started lazily on the first batch large enough
    to shard.  ``semantics`` records
    the oracle's fold as its ``(name, params)`` wire form so a restored
    run evaluates under the same influence semantics (and keys its memo
    table identically); unknown names fail loudly on restore.  The
    default ``count`` fold is *omitted* so default-semantics checkpoints
    stay byte-identical to pre-fold ones (restore treats a missing key
    as ``count``).  Node weights are never written.
    """
    payload = {
        "backend": oracle.backend,
        "max_cache_entries": oracle.max_cache_entries,
        "workers": oracle.workers,
    }
    if oracle.fold.spec() != ("count", {}):
        payload["semantics"] = list(oracle.fold.spec())
    return payload


def oracle_from_dict(payload: Optional[Dict], graph: TDNGraph) -> InfluenceOracle:
    """Rebuild an oracle for a restored graph.

    Checkpoints from before the oracle configuration was serialized (or a
    missing key) fall back to a *current-defaults* oracle.  The memo-mode
    field older versions wrote is ignored: solutions and spread values
    never depended on it.  Checkpoints from before semantics were
    serialized default to ``"count"`` (the only semantics that existed
    then); a serialized name the registry does not know raises
    :class:`~repro.errors.SemanticsError` rather than silently resuming
    under different influence arithmetic.  A ``weighted_sum`` checkpoint
    raises :class:`~repro.errors.PersistenceError`: its weights were
    never written, so the caller must inject the weighted oracle.
    """
    if not payload:
        return InfluenceOracle(graph)
    workers = payload.get("workers", 1)
    semantics = payload.get("semantics", "count")
    if resolve_fold(semantics).needs_weights:
        raise PersistenceError(
            "checkpoint was taken with semantics 'weighted_sum', whose node "
            "weights are not serialized; restore it with "
            "algorithm_from_dict(..., oracle=InfluenceOracle(graph, "
            "semantics='weighted_sum', weights=...))"
        )
    return InfluenceOracle(
        graph,
        backend=payload.get("backend", "csr"),
        max_cache_entries=payload.get("max_cache_entries", 200_000),
        parallel=workers if workers and workers > 1 else None,
        semantics=semantics,
    )


# ----------------------------------------------------------------------
# Threshold grids and sieve instances
# ----------------------------------------------------------------------
def _thresholds_to_dict(grid: ThresholdSet) -> Dict:
    return {
        "k": grid.k,
        "epsilon": grid.epsilon,
        "delta": grid.delta,
        "sieves": {
            str(exponent): {
                "nodes": list(sieve.nodes),
                "cached_value": sieve.cached_value,
            }
            for exponent, sieve in grid._sieves.items()  # noqa: SLF001
        },
    }


def _thresholds_from_dict(payload: Dict) -> ThresholdSet:
    grid = ThresholdSet(payload["k"], payload["epsilon"])
    sieves = {}
    for exponent_str, sieve_payload in payload["sieves"].items():
        sieve = SieveSet()
        for node in sieve_payload["nodes"]:
            sieve.add(node)
        sieve.cached_value = sieve_payload["cached_value"]
        sieves[int(exponent_str)] = sieve
    grid.restore(payload["delta"], sieves)
    return grid


def sieve_adn_to_dict(sieve: SieveADN, include_oracle: bool = True) -> Dict:
    """Serialize one SIEVEADN instance (graph stored separately).

    Composite serializers pass ``include_oracle=False``: their instances
    all share the one top-level oracle, so repeating its configuration in
    every nested payload would be redundant (and misleading, suggesting
    per-instance oracles).
    """
    min_expiry = sieve.min_expiry
    if min_expiry == math.inf:
        min_expiry = "inf"
    payload = {
        "format_version": _FORMAT_VERSION,
        "type": "SieveADN",
        "k": sieve.k,
        "epsilon": sieve.epsilon,
        "min_expiry": min_expiry,
        "changed_mode": sieve.changed_mode,
        "last_time": sieve._last_time,  # noqa: SLF001
        "thresholds": _thresholds_to_dict(sieve.thresholds),
    }
    if include_oracle:
        payload["oracle"] = _maybe_oracle_to_dict(sieve.oracle)
    return payload


def sieve_adn_from_dict(
    payload: Dict, graph: TDNGraph, oracle: InfluenceOracle
) -> SieveADN:
    """Rebuild a SIEVEADN instance against a restored graph."""
    _check_payload(payload, "SieveADN")
    min_expiry = payload["min_expiry"]
    if min_expiry == "inf":
        min_expiry = math.inf
    sieve = SieveADN(
        payload["k"],
        payload["epsilon"],
        graph,
        oracle,
        min_expiry=min_expiry,
        changed_mode=payload["changed_mode"],
    )
    sieve.thresholds = _thresholds_from_dict(payload["thresholds"])
    sieve._last_time = payload["last_time"]  # noqa: SLF001
    return sieve


# ----------------------------------------------------------------------
# Full algorithms
# ----------------------------------------------------------------------
def algorithm_to_dict(algorithm) -> Dict:
    """Serialize a SieveADN / BasicReduction / HistApprox instance."""
    if isinstance(algorithm, SieveADN):
        return sieve_adn_to_dict(algorithm)
    if isinstance(algorithm, BasicReduction):
        return {
            "format_version": _FORMAT_VERSION,
            "type": "BasicReduction",
            "k": algorithm.k,
            "epsilon": algorithm.epsilon,
            "L": algorithm.L,
            "changed_mode": algorithm.changed_mode,
            "last_time": algorithm._last_time,  # noqa: SLF001
            "oracle": _maybe_oracle_to_dict(algorithm.oracle),
            "instances": [
                {
                    "horizon": horizon,
                    "state": sieve_adn_to_dict(instance, include_oracle=False),
                }
                for horizon, instance in algorithm._instances  # noqa: SLF001
            ],
        }
    if isinstance(algorithm, HistApprox):
        return {
            "format_version": _FORMAT_VERSION,
            "type": "HistApprox",
            "k": algorithm.k,
            "epsilon": algorithm.epsilon,
            "changed_mode": algorithm.changed_mode,
            "refine_head": algorithm.refine_head,
            "last_time": algorithm._last_time,  # noqa: SLF001
            "oracle": _maybe_oracle_to_dict(algorithm.oracle),
            "instances": [
                {
                    "horizon": "inf" if horizon == math.inf else horizon,
                    "state": sieve_adn_to_dict(
                        algorithm._instances[horizon],  # noqa: SLF001
                        include_oracle=False,
                    ),
                }
                for horizon in algorithm._horizons  # noqa: SLF001
            ],
        }
    label = getattr(algorithm, "label", "") or type(algorithm).__name__
    raise UnsupportedCheckpointError(
        f"cannot serialize {type(algorithm).__name__} (the {label} algorithm); "
        "supported: SieveADN, BasicReduction, HistApprox"
    )


def algorithm_from_dict(payload: Dict, graph: TDNGraph, oracle=None):
    """Rebuild an algorithm serialized by :func:`algorithm_to_dict`.

    When no ``oracle`` is supplied, one is rebuilt from the payload's
    serialized oracle configuration (backend / cache bound / workers /
    semantics).  A ``weighted_sum`` payload needs the weighted oracle
    passed as ``oracle``.
    """
    if oracle is None:
        oracle = oracle_from_dict(payload.get("oracle"), graph)
    kind = payload.get("type")
    if kind == "SieveADN":
        return sieve_adn_from_dict(payload, graph, oracle)
    if kind == "BasicReduction":
        _check_payload(payload, "BasicReduction")
        algorithm = BasicReduction(
            payload["k"],
            payload["epsilon"],
            payload["L"],
            graph,
            oracle,
            changed_mode=payload["changed_mode"],
        )
        algorithm._last_time = payload["last_time"]  # noqa: SLF001
        for row in payload["instances"]:
            instance = sieve_adn_from_dict(row["state"], graph, oracle)
            algorithm._instances.append((row["horizon"], instance))  # noqa: SLF001
        return algorithm
    if kind == "HistApprox":
        _check_payload(payload, "HistApprox")
        algorithm = HistApprox(
            payload["k"],
            payload["epsilon"],
            graph,
            oracle,
            changed_mode=payload["changed_mode"],
            refine_head=payload["refine_head"],
        )
        algorithm._last_time = payload["last_time"]  # noqa: SLF001
        for row in payload["instances"]:
            horizon = math.inf if row["horizon"] == "inf" else row["horizon"]
            instance = sieve_adn_from_dict(row["state"], graph, oracle)
            algorithm._horizons.append(horizon)  # noqa: SLF001
            algorithm._instances[horizon] = instance  # noqa: SLF001
        return algorithm
    raise PersistenceError(f"unknown serialized algorithm type {kind!r}")


# ----------------------------------------------------------------------
# File-level checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(path: Union[str, Path], graph: TDNGraph, algorithm) -> None:
    """Write a JSON checkpoint of the graph plus one algorithm, atomically.

    The payload is written to a temporary file in the target's directory,
    flushed and fsynced, then renamed over the target with
    :func:`os.replace`.  A crash or error at any point leaves either the
    previous checkpoint or the complete new one, never a torn file, and
    the temporary file is removed when the write raises.
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "graph": graph_to_dict(graph),
        "algorithm": algorithm_to_dict(algorithm),
    }
    target = Path(path)
    # Unique per process and thread, and created like the target itself
    # (``open`` honours the umask, unlike ``tempfile.mkstemp``'s 0600).
    temp = target.with_name(
        f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(temp, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise
    if os.name == "posix":
        # Make the rename itself durable.
        dir_fd = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def load_checkpoint(path: Union[str, Path]):
    """Load a checkpoint; returns ``(graph, algorithm)`` rewired together."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format_version") != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported checkpoint format {payload.get('format_version')!r}"
        )
    graph = graph_from_dict(payload["graph"])
    algorithm = algorithm_from_dict(payload["algorithm"], graph)
    return graph, algorithm


# ----------------------------------------------------------------------
def _check_label(label) -> None:
    if not isinstance(label, _JSONABLE_LABEL_TYPES) or isinstance(label, bool):
        raise TypeError(
            f"node label {label!r} is not JSON-serializable; persistence "
            "supports str/int/float labels"
        )


def _check_payload(payload: Dict, expected_type: str) -> None:
    if payload.get("type") != expected_type:
        raise PersistenceError(
            f"expected serialized {expected_type}, got {payload.get('type')!r}"
        )
    if payload.get("format_version") != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {payload.get('format_version')!r}"
        )
