"""Candidate path generation on the expanded network.

Yen's k-shortest loopless search by cost with Lawler's rule, run directly on
the expanded network's integer adjacency, then latency pruning and a
standalone residual-capacity prefilter. Paths are edge-number sequences;
``map_back`` decodes them. Ties between equal-cost paths are broken
lexicographically on the node sequence, then on the edge key sequence, so
candidate sets are reproducible and nested as k grows.

Spur searches that cannot reach the first k are cut short. One reverse
Dijkstra gives h(v), the least weight from v to the target on the whole
graph, which no spur path can undercut. Once the pool holds r paths, r being
the number still wanted, let W be the r-th smallest pooled weight: a spur
entry is not queued when its root weight plus its distance plus h of its node
exceeds W + 1e-9 * max(1, |W|). Such a path is heavier than r paths already
pooled, so it is never returned. The margin dwarfs any rounding from adding
the same weights in another order, so a path that ties W exactly is never
cut. The heap order is unchanged, so pruning changes no result.
"""
from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

from .model import (PhysicalNetwork, ResidualState, SliceRequest, TrustRelation,
                    allowed_operators)
from .expand import VNF, ExpandedNetwork, UnreachableEndpoints, build_expanded, map_back
from .pricing import PriceSnapshot

_INF = float("inf")
_NEG_INF = -_INF
_EPS = 1e-9


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


def _distances_to(adjacency, target):
    """Least weight from every node to ``target``, infinity where there is no
    path: Dijkstra on the reversed edges."""
    incoming = [[] for _ in adjacency]
    for node, out in enumerate(adjacency):
        for dst, w, _ in out:
            incoming[dst].append((node, w))
    dist = [_INF] * len(adjacency)
    dist[target] = 0.0
    heap = [(0.0, target)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for src, w in incoming[node]:
            nd = d + w
            if nd < dist[src]:
                dist[src] = nd
                heapq.heappush(heap, (nd, src))
    return dist


def _dijkstra(adjacency, start, target, best, banned_edges, h, limit):
    """Least-weight path from ``start`` to ``target``, or None.

    ``best`` holds per node the least distance queued so far, initially
    infinity; it is set to minus infinity once the node is settled, so
    nodes the caller marks that way are never entered. Edge numbers in
    ``banned_edges`` are never used. Among equal-weight paths the one with
    the smallest node sequence, then edge sequence, wins: heap entries are
    (dist, node sequence, edge sequence). An entry heavier than one already
    queued for the same node could never be settled first, so it is not
    queued; nor is one whose distance plus ``h`` of its node, a lower bound
    on the rest of the way, exceeds ``limit``. Returns (node sequence, edge
    sequence).
    """
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
            if nd > best[dst] or eid in banned_edges or nd + h[dst] > limit:
                continue
            best[dst] = nd
            heapq.heappush(heap, (nd, nodes + (dst,), path + (eid,)))
    return None


def k_shortest_paths(exp: ExpandedNetwork, k: int):
    """Up to k least-cost loopless paths in nondecreasing cost, each a tuple
    of edge numbers.

    Yen's deviation search with Lawler's rule: a path that deviated from
    its parent at index d spurs only from index d onward, since the spurs
    before d were taken when an earlier path with the same prefix was found
    and would only repeat paths already queued. Deterministic: candidate
    ordering is (cost, node sequence, edge key sequence), where a path's
    cost is the sum of its root's edge costs plus that of its spur's.
    Spur searches are pruned by the bound the module docstring describes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    weights, adjacency = exp.edge_cost, exp.arcs
    size, target = len(adjacency), exp.target_index
    h = [0.0] * size        # replaced by the real bound once it can prune
    first = _dijkstra(adjacency, exp.source_index, target, [_INF] * size, (),
                      h, _INF)
    if first is None:
        return []

    found = [first[1]]
    seen = {first[1]}
    # root edge sequence -> next edges of the found paths that share it
    branches: dict[tuple, set] = {}
    pool: list = []        # (weight, node seq, edge seq, deviation index)
    lightest: list = []    # the k - len(found) smallest pooled weights, sorted
    nodes, path, deviation = first[0], first[1], 0
    bounded = False
    while len(found) < k:
        for i in range(len(path)):
            branches.setdefault(path[:i], set()).add(path[i])
        wanted = k - len(found)
        for i in range(deviation, len(path)):
            root = path[:i]
            root_w = sum(weights[e] for e in root)
            limit = _INF
            if len(lightest) == wanted:
                if not bounded:
                    h, bounded = _distances_to(adjacency, target), True
                cap = lightest[-1]
                limit = cap + _EPS * max(1.0, abs(cap)) - root_w
                if h[nodes[i]] > limit:
                    continue
            best = [_INF] * size
            for node in nodes[:i]:
                best[node] = _NEG_INF
            spur = _dijkstra(adjacency, nodes[i], target, best, branches[root],
                             h, limit)
            if spur is None:
                continue
            total = root + spur[1]
            if total in seen:
                continue
            seen.add(total)
            w = root_w + sum(weights[e] for e in spur[1])
            heapq.heappush(pool, (w, nodes[:i] + spur[0], total, i))
            if len(lightest) < wanted:
                insort(lightest, w)
            elif w < lightest[-1]:
                insort(lightest, w)
                lightest.pop()
        if not pool:
            break
        _, nodes, path, deviation = heapq.heappop(pool)
        lightest.pop(0)
        found.append(path)
    return found


def _footprint(exp: ExpandedNetwork, slc: SliceRequest, path):
    """Bandwidth per link and units per (node, resource) that ``path`` would
    reserve, with every traversal and every placement charged."""
    svc = exp.service
    link_units: dict[int, float] = {}
    node_units: dict[tuple[int, int], float] = {}
    for e in path:
        ref = exp.edge_ref[e]
        if exp.edge_kind[e] == VNF:
            vid = exp.node(exp.edge_dst[e])[1]
            demand = slc.vnf_catalog[svc.vnf_sequence[ref]].vnf.demand
            for r, amount in enumerate(demand):
                if amount:
                    node_units[(vid, r)] = node_units.get((vid, r), 0.0) + amount
        else:
            link_units[ref] = link_units.get(ref, 0.0) + svc.bandwidth
    return link_units, node_units


def candidate_from_path(exp: ExpandedNetwork, slc: SliceRequest, path,
                        index: int, footprint) -> CandidatePath:
    """The candidate that the edge-number path ``path`` encodes, given the
    (link units, node units) that ``_footprint`` computed for it."""
    placement, routes, cost, latency = map_back(exp, path)
    link_units, node_units = footprint
    return CandidatePath(
        service_id=exp.service.id,
        index=index,
        placement=placement,
        routes=routes,
        cost=cost,
        latency=latency,
        link_units=tuple(sorted(link_units.items())),
        node_units=tuple((v, r, a) for (v, r), a in sorted(node_units.items())),
    )


def _admitted_footprint(exp: ExpandedNetwork, slc: SliceRequest, path,
                        state: ResidualState):
    """``path``'s footprint if the path meets its service's latency bound and
    the footprint alone fits the residual capacities, else None. Latency is
    summed in path order, as ``map_back`` sums it, so this decides as
    checking the built candidate would."""
    latency = 0.0
    for e in path:
        latency += exp.edge_latency[e]
    if latency > exp.service.max_latency + _EPS:
        return None
    link_units, node_units = _footprint(exp, slc, path)
    if (all(amount <= state.link_residual(eid) + _EPS
            for eid, amount in link_units.items())
            and all(amount <= state.node_residual(vid, r) + _EPS
                    for (vid, r), amount in node_units.items())):
        return link_units, node_units
    return None


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
    for svc in slc.services:
        try:
            exp = build_expanded(net, svc, slc, allowed, prices)
        except UnreachableEndpoints:
            out[svc.id] = []
            continue
        kept = []
        for path in k_shortest_paths(exp, k):
            footprint = _admitted_footprint(exp, slc, path, state)
            if footprint is not None:
                kept.append(candidate_from_path(exp, slc, path, len(kept),
                                                footprint))
        out[svc.id] = kept
    return out
