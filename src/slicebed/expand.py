"""Layered expansion of the physical network.

For a service with an m-VNF chain, the expanded network stacks m+1 copies of
the trust-filtered substrate. Copies of physical links connect nodes within a
layer; a processing edge from node v in layer k-1 to v in layer k exists iff
the k-th VNF may be deployed at v. Any path from the source in layer 0 to the
sink in layer m therefore encodes a routing and an in-order placement at once.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import PhysicalNetwork, ServiceChain, SliceRequest
from .pricing import PriceSnapshot


class UnreachableEndpoints(Exception):
    """Source or sink of the service was filtered out by trust."""


@dataclass(frozen=True)
class ExpEdge:
    """Edge of the expanded network.

    kind is "link" (intra-layer copy of physical link ``ref``) or "vnf"
    (processing edge placing chain position ``ref`` at the node).
    """
    src: tuple[int, int]
    dst: tuple[int, int]
    cost: float
    latency: float
    kind: str
    ref: int


class ExpandedNetwork:
    """Immutable layered graph with costs and latencies baked in at build time."""

    def __init__(self, service: ServiceChain, num_layers: int, source, target,
                 adjacency: dict):
        self.service = service
        self.num_layers = num_layers
        self.source = source            # (0, s)
        self.target = target            # (m, t)
        self.adjacency = adjacency      # node -> tuple of ExpEdge by (dst, kind, ref)
        self.num_nodes = len(adjacency)
        self.num_edges = sum(len(v) for v in adjacency.values())

    def out_edges(self, node):
        return self.adjacency.get(node, ())


def build_expanded(net: PhysicalNetwork, service: ServiceChain, slc: SliceRequest,
                   allowed: frozenset[int], prices: PriceSnapshot) -> ExpandedNetwork:
    """Build the layered network for one service of a slice.

    Nodes and links of operators outside ``allowed`` are omitted entirely, so
    trust compliance is structural. Edge costs use the per-request price
    snapshot: a link copy costs price_e * bandwidth, a processing edge costs
    the placement cost of the VNF at that node.
    """
    allowed_nodes = {vid for vid, n in net.nodes.items() if n.operator_id in allowed}
    if service.source not in allowed_nodes or service.sink not in allowed_nodes:
        raise UnreachableEndpoints(
            f"service {service.id}: endpoints filtered out by trust")

    chain = service.vnf_sequence
    m = len(chain)
    adjacency: dict = {}
    for layer in range(m + 1):
        for vid in allowed_nodes:
            adjacency[(layer, vid)] = []

    for eid in sorted(net.links):
        link = net.links[eid]
        if link.src not in allowed_nodes or link.dst not in allowed_nodes:
            continue
        cost = prices.link[eid] * service.bandwidth
        for layer in range(m + 1):
            adjacency[(layer, link.src)].append(
                ExpEdge((layer, link.src), (layer, link.dst),
                        cost, link.prop_delay, "link", eid))

    for k, fid in enumerate(chain):
        req = slc.vnf_catalog[fid]
        for vid in sorted(req.deploy_nodes):
            if vid not in allowed_nodes:
                continue
            cost = prices.placement_cost(net, vid, req.vnf.demand)
            adjacency[(k, vid)].append(
                ExpEdge((k, vid), (k + 1, vid), cost, req.vnf.proc_delay, "vnf", k))

    adjacency = {node: tuple(sorted(edges, key=lambda e: (e.dst, e.kind, e.ref)))
                 for node, edges in adjacency.items()}
    return ExpandedNetwork(service, m + 1, (0, service.source), (m, service.sink),
                           adjacency)


def map_back(exp: ExpandedNetwork, path: list[ExpEdge]):
    """Decode an expanded source-to-target path.

    Returns (placement, routes, cost, latency): placement maps chain position
    to the hosting node; routes lists the physical link ids per logical hop.
    """
    m = exp.num_layers - 1
    placement: dict[int, int] = {}
    routes: list[list[int]] = [[] for _ in range(m + 1)]
    cost = 0.0
    latency = 0.0
    hop = 0
    for edge in path:
        cost += edge.cost
        latency += edge.latency
        if edge.kind == "vnf":
            placement[edge.ref] = edge.src[1]
            hop += 1
        else:
            routes[hop].append(edge.ref)
    return placement, tuple(tuple(r) for r in routes), cost, latency


def to_dot(exp: ExpandedNetwork) -> str:
    """DOT text dump of the expanded graph for debugging."""
    lines = ["digraph expanded {", "  rankdir=LR;"]
    for (layer, vid) in sorted(exp.adjacency):
        name = f"l{layer}_n{vid}"
        shape = "doublecircle" if (layer, vid) in (exp.source, exp.target) else "circle"
        lines.append(f'  {name} [label="{vid}@{layer}", shape={shape}];')
    for node in sorted(exp.adjacency):
        for e in exp.adjacency[node]:
            s = f"l{e.src[0]}_n{e.src[1]}"
            t = f"l{e.dst[0]}_n{e.dst[1]}"
            style = "dashed" if e.kind == "vnf" else "solid"
            lines.append(
                f'  {s} -> {t} [label="c={e.cost:g} t={e.latency:g}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
