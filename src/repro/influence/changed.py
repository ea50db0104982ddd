"""Computing the changed-node set ``V_t-bar`` (paper Alg. 1, line 3).

SIEVEADN feeds its internal sieve not with edges but with *nodes whose
influence spread changed* when the batch ``E_t-bar`` was inserted.  Adding an
edge ``(u, v)`` can only increase the spread of nodes that can reach ``u``
(their reachable set may now extend through ``v``), so the exact changed set
is contained in the ancestors of the batch's source endpoints.

``V_t-bar`` is those ancestors over the instance's subgraph: a tight
superset of the truly changed nodes.  Feeding extra unchanged nodes never
hurts correctness, only costs oracle calls; missing a changed one can
(Theorem 2 needs every node whose spread grew), so the sources alone are
not enough.

Two interchangeable sweep engines compute the ancestors (``backend``):

* ``"csr"``: the transpose of the graph's delta-CSR engine — the reverse
  sweep over the lazily built base transpose plus the reverse arrival
  overlay (:mod:`repro.tdn.csr`).  This is the engine SIEVEADN uses when
  its oracle runs on the CSR backend.
* ``"dict"``: the reference pure-Python reverse walk over the graph's
  dict-of-dict in-adjacency (:mod:`repro.influence.reachability`).

A standalone SIEVEADN calls :func:`changed_nodes` once per non-empty
batch, on its oracle's backend; this is the only place its ``V_t-bar``
comes from (the oracle's memo sync closes its own dirty cone, for
eviction only).

Every horizon at once
---------------------
BASICREDUCTION and HISTAPPROX feed one batch (or a part of it) to many
SIEVEADN instances that differ only in their horizon ``h``.  Instance
``h`` sees the batch edges with expiry ``>= h`` and the alive pairs with
expiry ``>= h``, so an ancestor ``a`` is one of its candidates exactly
when some path from ``a`` to a source ``s`` has every pair expiry ``>= h``
and ``s`` has a batch edge with expiry ``>= h``.  Label every source with
its latest batch expiry and every ancestor with its widest-path
("bottleneck") value — the largest such ``h`` — and the candidates at
``h`` are the nodes labelled ``>= h``.  :func:`changed_node_labels` runs
that one reverse sweep per batch and :func:`candidates_at` cuts each
instance's list out of it, equal, node for node and in order, to a
:func:`changed_nodes` call per instance.

Either way the returned order is deterministic: sorted by interned id,
with never-interned nodes last by ``repr``.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import ConfigError
from repro.influence.reachability import ancestor_bottlenecks, ancestors
from repro.tdn.batch import EdgeBatch
from repro.tdn.graph import TDNGraph
from repro.tdn.interaction import Interaction

Node = Hashable

CHANGED_NODE_BACKENDS = ("dict", "csr")

#: Nodes paired with their widest-path labels, in canonical order.
Labelled = List[Tuple[Node, float]]


def _check_backend(backend: str) -> None:
    if backend not in CHANGED_NODE_BACKENDS:
        raise ConfigError(
            f"backend must be one of {CHANGED_NODE_BACKENDS}, got {backend!r}"
        )


def changed_nodes(
    graph: TDNGraph,
    batch: Union[EdgeBatch, Iterable[Interaction]],
    min_expiry: Optional[float] = None,
    backend: str = "dict",
) -> List[Node]:
    """Return ``V_t-bar`` for a batch already inserted into ``graph``.

    Must be called *after* the batch has been added: paths through other
    edges of the same batch count toward reachability.

    Args:
        graph: the shared TDN (batch already inserted).
        batch: the edges that just arrived, as columns or as rows.
        min_expiry: the calling instance's horizon filter.
        backend: ``"dict"`` (reference reverse BFS) or ``"csr"``
            (transpose-backed array sweep); identical results either way.

    Returns:
        The changed nodes in deterministic order: sorted by interned id
        (first-appearance order, O(1) per node), with a ``repr`` tiebreak
        only for nodes that were never interned — so runs are reproducible
        regardless of set iteration order and the common path never pays
        the per-node ``repr`` allocation.
    """
    _check_backend(backend)
    if isinstance(batch, EdgeBatch):
        sources: Set[Node] = set(batch.sources)
    else:
        sources = {interaction.source for interaction in batch}
    if not sources:
        return []
    if backend == "csr":
        return _csr_ancestors_ordered(graph, sources, min_expiry)
    return sorted(ancestors(graph, sources, min_expiry), key=_order_key(graph))


def _order_key(graph: TDNGraph):
    """Sort key of the canonical order: interned id, then ``repr``."""
    node_id = graph.node_id

    def order_key(node: Node):
        interned = node_id(node)
        if interned is None:
            return (1, repr(node))
        return (0, interned)

    return order_key


def _csr_ancestors_ordered(
    graph: TDNGraph, sources: Set[Node], min_expiry: Optional[float]
) -> List[Node]:
    """Reverse sweep on the delta-CSR transpose, already in output order.

    The sweep works in id space, so the deterministic order comes from a
    plain numeric sort of the ancestor ids — no id -> node -> id round
    trip per candidate.  Uninterned sources (defensive: the batch contract
    says they were inserted) trivially reach only themselves and sort
    after every interned node, by ``repr``.
    """
    ids: List[int] = []
    extra: List[Node] = []
    # Order-safe: both accumulators are fully re-sorted below (numeric id
    # order / repr), so set iteration order cannot leak into the output.
    # repro-lint: disable-next=RPL401
    for source in sources:
        source_id = graph.node_id(source)
        if source_id is None:
            extra.append(source)
        else:
            ids.append(source_id)
    ordered: List[Node] = []
    if ids:
        node_of_id = graph.node_of_id
        ancestor_ids = graph.csr().ancestor_ids(ids, min_expiry)
        ordered = [node_of_id(i) for i in sorted(ancestor_ids)]
    ordered.extend(sorted(extra, key=repr))
    return ordered


def latest_expiry_by_source(
    edges: Iterable[Tuple[Node, float]],
) -> Dict[Node, float]:
    """Each source's latest expiry over ``(source, expiry)`` pairs.

    These are the seed labels of :func:`changed_node_labels`: a source
    belongs to the batch part an instance at horizon ``h`` is fed exactly
    when one of its edges expires at or after ``h``.
    """
    seeds: Dict[Node, float] = {}
    for source, expiry in edges:
        if expiry > seeds.get(source, -math.inf):
            seeds[source] = expiry
    return seeds


def changed_node_labels(
    graph: TDNGraph,
    seeds: Mapping[Node, float],
    backend: str = "dict",
) -> Labelled:
    """Every horizon's ``V_t-bar`` from one reverse sweep.

    ``seeds`` maps each batch source to its latest batch expiry (see
    :func:`latest_expiry_by_source`; the batch is already inserted).
    Every ancestor is labelled with the largest horizon at which it
    reaches a seed labelled at least as high
    (:func:`~repro.influence.reachability.ancestor_bottlenecks` or its
    CSR twin).  For every horizon ``h >= t + 1``,
    ``candidates_at(result, h)`` equals ``changed_nodes(graph, <batch
    edges with expiry >= h>, h, backend)``, order included.

    Returns ``(node, label)`` pairs in the canonical changed-node order.
    """
    _check_backend(backend)
    if not seeds:
        return []
    if backend == "csr":
        return _csr_labels_ordered(graph, seeds)
    labels = ancestor_bottlenecks(graph, seeds)
    ordered = sorted(labels, key=_order_key(graph))
    return [(node, labels[node]) for node in ordered]


def candidates_at(labelled: Labelled, horizon: float) -> List[Node]:
    """The nodes of :func:`changed_node_labels` output labelled ``>= horizon``."""
    return [node for node, label in labelled if label >= horizon]


def _csr_labels_ordered(graph: TDNGraph, seeds: Mapping[Node, float]) -> Labelled:
    """The bottleneck sweep on the delta-CSR transpose, in output order.

    As in :func:`_csr_ancestors_ordered`, the sweep works in id space and
    uninterned seeds (which reach only themselves) sort last by ``repr``.
    """
    seed_labels: Dict[int, float] = {}
    extra: Labelled = []
    node_id = graph.node_id
    # Order-safe: both accumulators are fully re-sorted below (numeric id
    # order / repr), so seed order cannot leak into the output.
    # repro-lint: disable-next=RPL401
    for source, label in seeds.items():
        source_id = node_id(source)
        if source_id is None:
            extra.append((source, label))
        else:
            seed_labels[source_id] = label
    ordered: Labelled = []
    if seed_labels:
        labels = graph.csr().ancestor_bottlenecks(seed_labels)
        node_of_id = graph.node_of_id
        ordered = [(node_of_id(i), labels[i]) for i in sorted(labels)]
    extra.sort(key=lambda pair: repr(pair[0]))
    ordered.extend(extra)
    return ordered
