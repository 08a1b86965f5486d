"""Layered expansion of the physical network.

For a service with an m-VNF chain, the expanded network stacks m+1 copies of
the trust-filtered substrate. Copies of physical links connect nodes within a
layer; a processing edge from node v in layer k-1 to v in layer k exists iff
the k-th VNF may be deployed at v. Any path from the source in layer 0 to the
sink in layer m therefore encodes a routing and an in-order placement at once.

The graph is built in integer form, which the path search reads directly.
Nodes are numbered in sorted (layer, node id) order and edges in
(source node, dst, kind, ref) order. Per edge, parallel lists hold the
destination, cost, latency, kind and ref; per node, an adjacency tuple holds
(dst, cost, edge) triples. Comparing number sequences therefore orders paths
exactly as comparing their node sequences, then their (kind, ref) key
sequences, would. The order is read off ``PhysicalNetwork.trusted_substrate``,
which is computed once per allowed-operator set, so building a service's graph
sorts nothing.
"""
from __future__ import annotations

from .model import PhysicalNetwork, ServiceChain, SliceRequest
from .pricing import PriceSnapshot

LINK = "link"
VNF = "vnf"


class UnreachableEndpoints(Exception):
    """Source or sink of the service was filtered out by trust."""


class ExpandedNetwork:
    """Immutable layered graph in integer form, with costs and latencies
    baked in at build time.

    Node ``i`` is (layer ``i // n``, substrate node ``substrate_nodes[i % n]``)
    where n is the number of substrate nodes.
    """

    def __init__(self, service: ServiceChain, substrate_nodes: tuple[int, ...],
                 num_layers: int, source_index: int, target_index: int,
                 arcs: list, edge_dst: list, edge_cost: list, edge_latency: list,
                 edge_kind: list, edge_ref: list):
        self.service = service
        self.substrate_nodes = substrate_nodes
        self.num_layers = num_layers
        self.source_index = source_index
        self.target_index = target_index
        self.arcs = arcs                    # node -> tuple of (dst, cost, edge)
        self.edge_dst = edge_dst
        self.edge_cost = edge_cost
        self.edge_latency = edge_latency
        self.edge_kind = edge_kind          # LINK or VNF
        self.edge_ref = edge_ref            # link id or chain position
        self.num_nodes = len(arcs)
        self.num_edges = len(edge_dst)

    def node(self, i: int) -> tuple[int, int]:
        """(layer, node id) of node number ``i``."""
        layer, at = divmod(i, len(self.substrate_nodes))
        return layer, self.substrate_nodes[at]


def build_expanded(net: PhysicalNetwork, service: ServiceChain, slc: SliceRequest,
                   allowed: frozenset[int], prices: PriceSnapshot) -> ExpandedNetwork:
    """Build the layered network for one service of a slice.

    Nodes and links of operators outside ``allowed`` are omitted entirely, so
    trust compliance is structural. Edge costs use the per-request price
    snapshot: a link copy costs price_e * bandwidth, a processing edge costs
    the placement cost of the VNF at that node.
    """
    sub = net.trusted_substrate(allowed)
    index = sub.index
    if service.source not in index or service.sink not in index:
        raise UnreachableEndpoints(
            f"service {service.id}: endpoints filtered out by trust")

    chain = service.vnf_sequence
    m = len(chain)
    n = len(sub.nodes)
    price, bw = prices.link, service.bandwidth
    link_cost = [[price[e] * bw for e in ids] for ids in sub.out_link]
    # per layer: the VNF's delay, and node position -> cost of each
    # processing edge leaving it
    placing: list[tuple[float, dict[int, list[float]]]] = []
    for fid in chain:
        req = slc.vnf_catalog[fid]
        costs: dict[int, list[float]] = {}
        for vid in req.deploy_nodes:
            if vid in index:
                costs.setdefault(index[vid], []).append(
                    prices.placement_cost(net, vid, req.vnf.demand))
        placing.append((req.vnf.proc_delay, costs))
    placing.append((0.0, {}))

    arcs = []
    edge_dst: list[int] = []
    edge_cost: list[float] = []
    edge_latency: list[float] = []
    edge_ref: list[int] = []
    processing = []
    e = 0
    for layer, (delay, costs) in enumerate(placing):
        above = (layer + 1) * n
        for i, dsts in enumerate(sub.layer_dst(layer)):
            k = len(dsts)
            out = tuple(zip(dsts, link_cost[i], range(e, e + k)))
            edge_dst += dsts
            edge_cost += link_cost[i]
            edge_latency += sub.out_delay[i]
            edge_ref += sub.out_link[i]
            e += k
            if i in costs:
                for cost in costs[i]:
                    out += ((above + i, cost, e),)
                    edge_dst.append(above + i)
                    edge_cost.append(cost)
                    edge_latency.append(delay)
                    edge_ref.append(layer)
                    processing.append(e)
                    e += 1
            arcs.append(out)
    edge_kind = [LINK] * e
    for p in processing:
        edge_kind[p] = VNF
    return ExpandedNetwork(service, sub.nodes, m + 1, index[service.source],
                           m * n + index[service.sink], arcs, edge_dst, edge_cost,
                           edge_latency, edge_kind, edge_ref)


def map_back(exp: ExpandedNetwork, path):
    """Decode an expanded source-to-target path given as edge numbers.

    Returns (placement, routes, cost, latency): placement maps chain position
    to the hosting node; routes lists the physical link ids per logical hop.
    """
    m = exp.num_layers - 1
    placement: dict[int, int] = {}
    routes: list[list[int]] = [[] for _ in range(m + 1)]
    cost = 0.0
    latency = 0.0
    hop = 0
    for e in path:
        cost += exp.edge_cost[e]
        latency += exp.edge_latency[e]
        if exp.edge_kind[e] == VNF:
            placement[exp.edge_ref[e]] = exp.node(exp.edge_dst[e])[1]
            hop += 1
        else:
            routes[hop].append(exp.edge_ref[e])
    return placement, tuple(tuple(r) for r in routes), cost, latency


def to_dot(exp: ExpandedNetwork) -> str:
    """DOT text dump of the expanded graph for debugging."""
    names = [f"l{layer}_n{vid}" for layer, vid in map(exp.node, range(exp.num_nodes))]
    lines = ["digraph expanded {", "  rankdir=LR;"]
    for i, name in enumerate(names):
        layer, vid = exp.node(i)
        shape = "doublecircle" if i in (exp.source_index, exp.target_index) else "circle"
        lines.append(f'  {name} [label="{vid}@{layer}", shape={shape}];')
    for i, out in enumerate(exp.arcs):
        for dst, cost, e in out:
            style = "dashed" if exp.edge_kind[e] == VNF else "solid"
            lines.append(f'  {names[i]} -> {names[dst]} '
                         f'[label="c={cost:g} t={exp.edge_latency[e]:g}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
