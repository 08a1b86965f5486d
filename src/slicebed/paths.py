"""Candidate path generation on the expanded network.

Dijkstra and Yen-style k-shortest loopless search (with Lawler's rule), then
latency pruning and a standalone residual-capacity prefilter. Ties between
equal-weight paths are broken lexicographically on the node sequence, then on
the edge key sequence, so candidate sets are reproducible and nested as k
grows.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import (PhysicalNetwork, ResidualState, SliceRequest, TrustRelation,
                    allowed_operators)
from .expand import ExpandedNetwork, ExpEdge, UnreachableEndpoints, build_expanded
from .pricing import PriceSnapshot

COST = "cost"
LATENCY = "latency"
_INF = float("inf")
_NEG_INF = -_INF


@dataclass(frozen=True)
class CandidatePath:
    """Pre-validated allocation option for one service: placement, route and
    the exact resource footprint it would reserve."""
    service_id: int
    index: int
    placement: dict[int, int]
    routes: tuple[tuple[int, ...], ...]
    cost: float
    latency: float
    link_units: tuple[tuple[int, float], ...]          # (link id, bandwidth)
    node_units: tuple[tuple[int, int, float], ...]     # (node id, resource, amount)


def _flatten(exp: ExpandedNetwork, weight: str):
    """The layered graph in integer form, built afresh for one search.

    Nodes are numbered in sorted order and edges in (source node, adjacency)
    order, and ExpandedNetwork keeps each adjacency list sorted by
    (dst, kind, ref). Comparing number sequences therefore orders paths
    exactly as comparing their node sequences, then their (kind, ref) key
    sequences, would. Returns (index, edges, adjacency): node -> number,
    number -> ExpEdge, and per node a tuple of (dst number, weight, edge
    number).
    """
    nodes = sorted(exp.adjacency)
    index = {node: i for i, node in enumerate(nodes)}
    edges: list[ExpEdge] = []
    adjacency = []
    for node in nodes:
        out = []
        for e in exp.adjacency[node]:
            out.append((index[e.dst], e.cost if weight == COST else e.latency,
                        len(edges)))
            edges.append(e)
        adjacency.append(tuple(out))
    return index, edges, adjacency


def _dijkstra(adjacency, start, target, best, banned_edges):
    """Least-weight path from ``start`` to ``target``, or None.

    ``best`` holds per node the least distance queued so far, initially
    infinity; it is set to minus infinity once the node is settled, so
    nodes the caller marks that way are never entered. Edge numbers in
    ``banned_edges`` are never used. Among equal-weight paths the one with
    the smallest node sequence, then edge sequence, wins: heap entries are
    (dist, node sequence, edge sequence). An entry heavier than one already
    queued for the same node could never be settled first, so it is not
    queued. Returns (node sequence, edge sequence).
    """
    if best[start] == _NEG_INF:
        return None
    heap = [(0.0, (start,), ())]
    while heap:
        dist, nodes, path = heapq.heappop(heap)
        node = nodes[-1]
        if dist > best[node]:
            continue
        best[node] = _NEG_INF
        if node == target:
            return nodes, path
        for dst, w, eid in adjacency[node]:
            nd = dist + w
            if nd > best[dst] or eid in banned_edges:
                continue
            best[dst] = nd
            heapq.heappush(heap, (nd, nodes + (dst,), path + (eid,)))
    return None


def shortest_path(exp: ExpandedNetwork, weight: str = COST):
    """Minimum-weight source-to-target path, or None if disconnected.

    Among equal-weight paths, returns the one with the lexicographically
    smallest node sequence.
    """
    found = k_shortest_paths(exp, 1, weight)
    return found[0] if found else None


def k_shortest_paths(exp: ExpandedNetwork, k: int, weight: str = COST):
    """Up to k minimum-weight loopless paths in nondecreasing weight.

    Yen's deviation search with Lawler's rule: a path that deviated from
    its parent at index d spurs only from index d onward, since the spurs
    before d were taken when an earlier path with the same prefix was found
    and would only repeat paths already queued. Deterministic: candidate
    ordering is (weight, node sequence, edge key sequence), where a path's
    weight is the sum of its root's edge weights plus that of its spur's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index, edges, adjacency = _flatten(exp, weight)
    weights = [w for out in adjacency for _, w, _ in out]
    size, target = len(adjacency), index[exp.target]
    first = _dijkstra(adjacency, index[exp.source], target, [_INF] * size, ())
    if first is None:
        return []

    found = [first[1]]
    seen = {first[1]}
    # root edge sequence -> next edges of the found paths that share it
    branches: dict[tuple, set] = {}
    pool: list = []        # (weight, node seq, edge seq, deviation index)
    nodes, path, deviation = first[0], first[1], 0
    while len(found) < k:
        for i in range(len(path)):
            branches.setdefault(path[:i], set()).add(path[i])
        for i in range(deviation, len(path)):
            root = path[:i]
            best = [_INF] * size
            for node in nodes[:i]:
                best[node] = _NEG_INF
            spur = _dijkstra(adjacency, nodes[i], target, best, branches[root])
            if spur is None:
                continue
            total = root + spur[1]
            if total in seen:
                continue
            seen.add(total)
            w = sum(weights[e] for e in root) + sum(weights[e] for e in spur[1])
            heapq.heappush(pool, (w, nodes[:i] + spur[0], total, i))
        if not pool:
            break
        _, nodes, path, deviation = heapq.heappop(pool)
        found.append(path)
    return [[edges[e] for e in p] for p in found]


def candidate_from_path(exp: ExpandedNetwork, slc: SliceRequest, path,
                        index: int) -> CandidatePath:
    from .expand import map_back

    placement, routes, cost, latency = map_back(exp, path)
    svc = exp.service
    link_units: dict[int, float] = {}
    for route in routes:
        for eid in route:
            link_units[eid] = link_units.get(eid, 0.0) + svc.bandwidth
    node_units: dict[tuple[int, int], float] = {}
    for pos, vid in placement.items():
        demand = slc.vnf_catalog[svc.vnf_sequence[pos]].vnf.demand
        for r, amount in enumerate(demand):
            if amount:
                node_units[(vid, r)] = node_units.get((vid, r), 0.0) + amount
    return CandidatePath(
        service_id=svc.id,
        index=index,
        placement=placement,
        routes=routes,
        cost=cost,
        latency=latency,
        link_units=tuple(sorted(link_units.items())),
        node_units=tuple((v, r, a) for (v, r), a in sorted(node_units.items())),
    )


def _fits_standalone(cand: CandidatePath, state: ResidualState) -> bool:
    eps = 1e-9
    for eid, amount in cand.link_units:
        if amount > state.link_residual(eid) + eps:
            return False
    for vid, r, amount in cand.node_units:
        if amount > state.node_residual(vid, r) + eps:
            return False
    return True


def generate_candidates(net: PhysicalNetwork, trust: TrustRelation,
                        state: ResidualState, slc: SliceRequest, k: int,
                        prices: PriceSnapshot) -> dict[int, list[CandidatePath]]:
    """Per-service candidate lists, cheapest first.

    Generation runs the k-shortest search by cost on each service's expanded
    network, then drops paths violating the latency bound and paths whose
    standalone footprint no longer fits the residual capacities. An empty
    list for any service means the request cannot be served from candidates.

    Raises UntrustableRequest when the trust specification leaves no
    operator at all.
    """
    allowed = allowed_operators(slc, trust)
    out: dict[int, list[CandidatePath]] = {}
    eps = 1e-9
    for svc in slc.services:
        try:
            exp = build_expanded(net, svc, slc, allowed, prices)
        except UnreachableEndpoints:
            out[svc.id] = []
            continue
        kept = []
        for path in k_shortest_paths(exp, k, COST):
            cand = candidate_from_path(exp, slc, path, len(kept))
            if cand.latency > svc.max_latency + eps:
                continue
            if not _fits_standalone(cand, state):
                continue
            kept.append(cand)
        out[svc.id] = kept
    return out
