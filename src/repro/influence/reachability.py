"""Horizon-filtered reachability on a :class:`~repro.tdn.graph.TDNGraph`.

The influence spread of Definition 3 is plain directed reachability.  The
traversals here are the *reference* engine: the oracle's
default ``backend="csr"`` answers forward reachability from the delta-CSR
engine (:mod:`repro.tdn.csr`) instead, and :func:`ancestors` has a
transpose-backed counterpart there
(:meth:`~repro.tdn.csr.DeltaCSR.ancestor_ids`) used by ``changed_nodes``;
both compact paths are pinned to agree with the functions here by the
cross-backend equivalence suite.  All traversals accept a ``min_expiry``
horizon: only edges with expiry at or above the horizon are traversed,
which is how a single shared graph serves SIEVEADN instances with
different lifetime horizons (see "Horizon filtering" in
:mod:`repro.tdn.graph`).
:func:`ancestor_bottlenecks` answers every horizon at once: it labels
each ancestor with the widest horizon at which it still reaches a seed
(its CSR twin is :meth:`~repro.tdn.csr.DeltaCSR.ancestor_bottlenecks`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.tdn.graph import TDNGraph

Node = Hashable


def reachable_set(
    graph: TDNGraph,
    sources: Iterable[Node],
    min_expiry: Optional[float] = None,
) -> Set[Node]:
    """Return all nodes reachable from ``sources`` (including the sources).

    A node is reachable from itself via the empty path, so every source that
    exists in the graph contributes itself to the result.  Sources that are
    not present in the (filtered) graph still count as reached — a seed node
    trivially "influences" itself — except that nodes entirely absent from
    the alive graph contribute only themselves.

    Args:
        graph: the shared TDN.
        sources: seed nodes ``S``.
        min_expiry: traverse only edges with expiry >= this horizon
            (``None`` = every alive edge).
    """
    visited: Set[Node] = set()
    queue: deque = deque()
    for s in sources:
        if s not in visited:
            visited.add(s)
            queue.append(s)
    while queue:
        node = queue.popleft()
        for nxt in graph.out_neighbors(node, min_expiry):
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return visited


def ancestors(
    graph: TDNGraph,
    targets: Iterable[Node],
    min_expiry: Optional[float] = None,
) -> Set[Node]:
    """Return all nodes that can reach ``targets`` (including the targets).

    This is the reverse-BFS used to compute the changed-node set
    ``V_t-bar``: when an edge ``(u, v)`` is inserted, exactly the nodes that
    can reach ``u`` may see their influence spread grow.
    """
    visited: Set[Node] = set()
    queue: deque = deque()
    for s in targets:
        if s not in visited:
            visited.add(s)
            queue.append(s)
    while queue:
        node = queue.popleft()
        for prev in graph.in_neighbors(node, min_expiry):
            if prev not in visited:
                visited.add(prev)
                queue.append(prev)
    return visited


def ancestor_bottlenecks(
    graph: TDNGraph, seeds: Mapping[Node, float]
) -> Dict[Node, float]:
    """Label every ancestor of ``seeds`` with its widest-path bottleneck.

    ``seeds`` maps each target to its own label.  An ancestor ``a`` gets
    the largest ``min(seeds[s], smallest pair expiry on the path)`` over
    all paths from ``a`` to a seed ``s``: the largest horizon at which
    ``a`` reaches a seed whose label clears it.  So for every horizon
    ``h``, ``{a : label >= h}`` is :func:`ancestors` of ``{s : seeds[s]
    >= h}`` at ``h`` — one walk serves every horizon.  Labels settle in
    descending order (Dijkstra on the max-min semiring), each node once.
    This is the reference twin of
    :meth:`repro.tdn.csr.DeltaCSR.ancestor_bottlenecks`.
    """
    labels: Dict[Node, float] = dict(seeds)
    # The running index breaks label ties without comparing nodes.
    heap: List[Tuple[float, int, Node]] = [
        (-label, index, node) for index, (node, label) in enumerate(labels.items())
    ]
    heapq.heapify(heap)
    pushed = len(heap)
    while heap:
        negative, _, node = heapq.heappop(heap)
        label = -negative
        if label < labels[node]:
            continue  # superseded by a wider path
        for prev, expiry in graph.in_pairs(node):
            width = expiry if expiry < label else label
            if prev not in labels or width > labels[prev]:
                labels[prev] = width
                heapq.heappush(heap, (-width, pushed, prev))
                pushed += 1
    return labels
