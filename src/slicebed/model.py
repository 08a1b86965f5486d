"""Domain model for multi-operator slice embedding.

Holds the physical network (nodes, directed links, per-resource capacities),
the inter-operator trust relation, slice requests (ordered VNF chains with
endpoints, bandwidth and latency bounds), a residual-capacity ledger, and an
independent feasibility checker used as the oracle for both solver engines.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property


class ScenarioError(Exception):
    """Malformed or invariant-violating scenario / request input."""


class UntrustableRequest(Exception):
    """The request's trust specification leaves no usable operator."""


class LedgerError(Exception):
    """Residual-capacity ledger misuse (overflow or unknown slice)."""


@dataclass(frozen=True)
class Resource:
    id: int
    name: str


@dataclass(frozen=True)
class Operator:
    id: int
    name: str


@dataclass(frozen=True)
class PhysNode:
    """Physical node; only function nodes carry per-resource capacity."""
    id: int
    operator_id: int
    is_function_node: bool
    capacity: tuple[float, ...]      # units per resource, zeros if not a function node
    unit_price: tuple[float, ...]    # cost per unit per resource


@dataclass(frozen=True)
class PhysLink:
    """Directed physical link. Undirected input links are expanded at load time."""
    id: int
    src: int
    dst: int
    capacity: float
    prop_delay: float
    unit_price: float


@dataclass(frozen=True)
class Vnf:
    id: int
    name: str
    proc_delay: float
    demand: tuple[float, ...]        # required units per resource


@dataclass(frozen=True)
class ServiceChain:
    """One service of a slice: route traffic source -> chain -> sink."""
    id: int
    source: int
    sink: int
    vnf_sequence: tuple[int, ...]
    bandwidth: float
    max_latency: float


@dataclass(frozen=True)
class SliceVnf:
    """Per-slice view of a VNF: definition plus aggregate bandwidth and
    the set of function nodes where the slice may deploy it."""
    vnf: Vnf
    agg_bandwidth: float
    deploy_nodes: tuple[int, ...]


@dataclass(frozen=True)
class SliceRequest:
    id: str
    origin_operator: int
    allow_operators: frozenset[int]
    deny_operators: frozenset[int]
    services: tuple[ServiceChain, ...]
    vnf_catalog: dict[int, SliceVnf]
    arrival_time: float = 0.0
    holding_time: float = 1.0


class TrustRelation:
    """Binary relation over operators; reflexive, not assumed symmetric
    or transitive."""

    def __init__(self, operator_ids, pairs):
        self.operator_ids = frozenset(operator_ids)
        self._pairs = frozenset((int(i), int(j)) for i, j in pairs)
        for i, j in self._pairs:
            if i not in self.operator_ids or j not in self.operator_ids:
                raise ScenarioError(f"trust pair ({i},{j}) references unknown operator")

    def trusts(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self._pairs

    def trusted_by(self, origin: int) -> frozenset[int]:
        out = {origin}
        out.update(j for i, j in self._pairs if i == origin)
        return frozenset(out)

    def pairs(self):
        return self._pairs


class TrustedSubstrate:
    """The nodes of the operators in one allowed set and the links between
    them, in a fixed order: nodes by id, each node's out-links by
    (dst, link id). Per node position, ``out_link`` holds the out-links' ids,
    ``out_delay`` their propagation delays and ``out_dst`` the positions of
    their heads. The links are ordered on first use, so a set whose nodes
    are only listed costs no more than the list."""

    def __init__(self, net: "PhysicalNetwork", allowed: frozenset[int]):
        self._net = net
        self.nodes = tuple(sorted(v for v, n in net.nodes.items()
                                  if n.operator_id in allowed))
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self._layer_dst: list = []

    @cached_property
    def out_link(self) -> tuple[tuple[int, ...], ...]:
        links, index = self._net.links, self.index
        return tuple(tuple(e for _, e in sorted(
            (index[links[e].dst], e) for e in self._net.out_links[v]
            if links[e].dst in index)) for v in self.nodes)

    @cached_property
    def out_dst(self) -> tuple[tuple[int, ...], ...]:
        links, index = self._net.links, self.index
        return tuple(tuple(index[links[e].dst] for e in ids) for ids in self.out_link)

    @cached_property
    def out_delay(self) -> tuple[tuple[float, ...], ...]:
        links = self._net.links
        return tuple(tuple(links[e].prop_delay for e in ids) for ids in self.out_link)

    def layer_dst(self, layer: int) -> tuple[tuple[int, ...], ...]:
        """``out_dst`` in the ``layer``-th copy of a stack of copies of this
        substrate, where the node at position i of copy l is numbered
        l * len(nodes) + i. Copies are kept up to the deepest layer asked
        for, that is one more than the longest chain seen."""
        while len(self._layer_dst) <= layer:
            base = len(self._layer_dst) * len(self.nodes)
            self._layer_dst.append(tuple(tuple(base + d for d in out)
                                         for out in self.out_dst))
        return self._layer_dst[layer]


class PhysicalNetwork:
    """Immutable multi-operator substrate with adjacency indexes."""

    def __init__(self, resources, operators, nodes, links):
        self.resources: tuple[Resource, ...] = tuple(resources)
        self.operators: dict[int, Operator] = {op.id: op for op in operators}
        self.nodes: dict[int, PhysNode] = {n.id: n for n in nodes}
        self.links: dict[int, PhysLink] = {e.id: e for e in links}
        self.out_links: dict[int, tuple[int, ...]] = {}
        self.in_links: dict[int, tuple[int, ...]] = {}
        out: dict[int, list[int]] = {n: [] for n in self.nodes}
        inn: dict[int, list[int]] = {n: [] for n in self.nodes}
        for e in links:
            out[e.src].append(e.id)
            inn[e.dst].append(e.id)
        self.out_links = {v: tuple(sorted(ids)) for v, ids in out.items()}
        self.in_links = {v: tuple(sorted(ids)) for v, ids in inn.items()}
        self._substrates: dict[frozenset[int], TrustedSubstrate] = {}

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @cached_property
    def function_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(n.id for n in self.nodes.values() if n.is_function_node))

    @cached_property
    def operator_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.operators))

    @cached_property
    def _operator_nodes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for v in sorted(self.nodes):
            out.setdefault(self.nodes[v].operator_id, []).append(v)
        return {op: tuple(vs) for op, vs in out.items()}

    def nodes_of_operator(self, op_id: int) -> tuple[int, ...]:
        return self._operator_nodes.get(op_id, ())

    def trusted_substrate(self, allowed) -> TrustedSubstrate:
        """The part of the substrate that operators in ``allowed`` own,
        computed once per allowed set and then reused. There is at most one
        entry per subset of the operators, 2 ** len(operators) in all."""
        allowed = frozenset(allowed)
        sub = self._substrates.get(allowed)
        if sub is None:
            sub = self._substrates[allowed] = TrustedSubstrate(self, allowed)
        return sub


@dataclass(frozen=True)
class ServiceEmbedding:
    """Decoded embedding of one service: VNF placement by chain position and
    the physical route split per logical hop (m VNFs give m+1 hops)."""
    service_id: int
    placement: dict[int, int]                    # chain position -> node id
    routes: tuple[tuple[int, ...], ...]          # per hop, ordered link ids
    latency: float
    cost: float


@dataclass(frozen=True)
class Embedding:
    slice_id: str
    services: tuple[ServiceEmbedding, ...]
    total_cost: float
    # False when a solver hit its time limit and returned an incumbent
    optimal: bool = True


@dataclass(frozen=True)
class Blocked:
    """Outcome of an admission attempt that could not be served."""
    reason: str          # untrustable_request | unreachable_endpoints |
                         # no_placement_nodes | no_candidate_path |
                         # infeasible | time_limit_no_incumbent
    detail: str = ""


def blocked_by_solver(sol) -> Blocked | None:
    """What an exact solve means for the request when it has no assignment
    to decode: Blocked("infeasible") when the program has no solution,
    Blocked("time_limit_no_incumbent") when the time limit struck before the
    first one. None when ``sol`` holds an assignment."""
    if sol.status == "infeasible":
        return Blocked("infeasible")
    if sol.assignment is None:
        return Blocked("time_limit_no_incumbent")
    return None


@dataclass
class Footprint:
    """Resource usage of one slice: bandwidth per link, units per (node, resource)."""
    link_units: dict[int, float] = field(default_factory=dict)
    node_units: dict[tuple[int, int], float] = field(default_factory=dict)


def embedding_footprint(net: PhysicalNetwork, slc: SliceRequest, emb: Embedding,
                        shared_vnf_per_slice: bool = False) -> Footprint:
    """Aggregate footprint of ``emb``.

    Default accounting charges the full VNF demand once per service occurrence.
    With ``shared_vnf_per_slice`` the demand is charged once per (vnf, node)
    pair across the whole slice.
    """
    fp = Footprint()
    services = {s.id: s for s in slc.services}
    seen_fv = set()
    for semb in emb.services:
        svc = services[semb.service_id]
        for route in semb.routes:
            for eid in route:
                fp.link_units[eid] = fp.link_units.get(eid, 0.0) + svc.bandwidth
        for pos, node in semb.placement.items():
            fid = svc.vnf_sequence[pos]
            if shared_vnf_per_slice:
                if (fid, node) in seen_fv:
                    continue
                seen_fv.add((fid, node))
            demand = slc.vnf_catalog[fid].vnf.demand
            for r, amount in enumerate(demand):
                if amount:
                    key = (node, r)
                    fp.node_units[key] = fp.node_units.get(key, 0.0) + amount
    return fp


class ResidualState:
    """Mutable ledger of used capacity, keyed by the embeddings of active slices.

    Reserving and then releasing the same slice restores the previous state
    exactly (capacities, demands and bandwidths are integral in generated
    scenarios, so the float adds and subtracts cancel bit for bit).
    """

    def __init__(self, net: PhysicalNetwork):
        self._net = net
        self.used_bw: dict[int, float] = {}
        self.used_node: dict[tuple[int, int], float] = {}
        self.active: dict[str, Footprint] = {}

    def link_used(self, eid: int) -> float:
        return self.used_bw.get(eid, 0.0)

    def node_used(self, vid: int, r: int) -> float:
        return self.used_node.get((vid, r), 0.0)

    def link_residual(self, eid: int) -> float:
        return self._net.links[eid].capacity - self.link_used(eid)

    def node_residual(self, vid: int, r: int) -> float:
        return self._net.nodes[vid].capacity[r] - self.node_used(vid, r)

    def reserve(self, slc: SliceRequest, emb: Embedding,
                shared_vnf_per_slice: bool = False) -> None:
        if emb.slice_id in self.active:
            raise LedgerError(f"slice {emb.slice_id} already reserved")
        fp = embedding_footprint(self._net, slc, emb, shared_vnf_per_slice)
        eps = 1e-9
        for eid, amount in fp.link_units.items():
            if self.link_used(eid) + amount > self._net.links[eid].capacity + eps:
                raise LedgerError(f"link {eid} capacity overflow")
        for (vid, r), amount in fp.node_units.items():
            if self.node_used(vid, r) + amount > self._net.nodes[vid].capacity[r] + eps:
                raise LedgerError(f"node {vid} resource {r} overflow")
        for eid, amount in fp.link_units.items():
            self.used_bw[eid] = self.used_bw.get(eid, 0.0) + amount
        for key, amount in fp.node_units.items():
            self.used_node[key] = self.used_node.get(key, 0.0) + amount
        self.active[emb.slice_id] = fp

    def release(self, slice_id: str) -> None:
        if slice_id not in self.active:
            raise LedgerError(f"unknown slice {slice_id}")
        fp = self.active.pop(slice_id)
        for eid, amount in fp.link_units.items():
            left = self.used_bw[eid] - amount
            if left == 0.0:
                del self.used_bw[eid]
            else:
                self.used_bw[eid] = left
        for key, amount in fp.node_units.items():
            left = self.used_node[key] - amount
            if left == 0.0:
                del self.used_node[key]
            else:
                self.used_node[key] = left


def allowed_operators(slc: SliceRequest, trust: TrustRelation) -> frozenset[int]:
    """Operators the slice may use: trusted-by-origin plus the allow-list,
    minus the deny-list. Deny wins; denying the origin itself is an error."""
    if slc.origin_operator in slc.deny_operators:
        raise UntrustableRequest(
            f"slice {slc.id}: origin operator {slc.origin_operator} is denied")
    allowed = set(trust.trusted_by(slc.origin_operator))
    allowed |= set(slc.allow_operators)
    allowed -= set(slc.deny_operators)
    if not allowed:
        raise UntrustableRequest(f"slice {slc.id}: no allowed operator remains")
    return frozenset(allowed)


_EPS = 1e-9


def check_embedding(net: PhysicalNetwork, trust: TrustRelation, state: ResidualState,
                    slc: SliceRequest, emb: Embedding,
                    shared_vnf_per_slice: bool = False) -> list[str]:
    """Independent feasibility check; returns every violation, empty if the
    embedding is feasible against the current residual state.

    Deliberately shares no code with the solver engines: it re-derives
    capacity, latency, ordering and trust directly from the definitions.
    """
    violations: list[str] = []
    try:
        allowed = allowed_operators(slc, trust)
    except UntrustableRequest as exc:
        return [f"trust: {exc}"]

    services = {s.id: s for s in slc.services}
    agg_link: dict[int, float] = {}
    agg_node: dict[tuple[int, int], float] = {}
    seen_fv = set()

    embedded_ids = [s.service_id for s in emb.services]
    if sorted(embedded_ids) != sorted(services):
        violations.append("structure: embedded services do not match the slice")
        return violations

    for semb in emb.services:
        svc = services[semb.service_id]
        tag = f"service {svc.id}"
        chain = svc.vnf_sequence
        m = len(chain)

        if sorted(semb.placement) != list(range(m)):
            violations.append(f"{tag}: placement positions != chain positions")
            continue
        if len(semb.routes) != m + 1:
            violations.append(f"{tag}: expected {m + 1} hop routes, got {len(semb.routes)}")
            continue

        # placement legality
        for pos, node in semb.placement.items():
            fid = chain[pos]
            req = slc.vnf_catalog.get(fid)
            if req is None:
                violations.append(f"{tag}: vnf {fid} missing from catalog")
                continue
            if node not in req.deploy_nodes:
                violations.append(f"{tag}: vnf {fid} placed at {node}, outside its deployment set")
            if node not in net.nodes or not net.nodes[node].is_function_node:
                violations.append(f"{tag}: node {node} is not a function node")

        # walk contiguity: hop h runs anchor[h] -> anchor[h+1]
        anchors = [svc.source] + [semb.placement.get(k) for k in range(m)] + [svc.sink]
        latency = 0.0
        visited_nodes = {svc.source, svc.sink}
        for h, route in enumerate(semb.routes):
            at = anchors[h]
            for eid in route:
                link = net.links.get(eid)
                if link is None:
                    violations.append(f"{tag}: hop {h} uses unknown link {eid}")
                    at = None
                    break
                if link.src != at:
                    violations.append(f"{tag}: hop {h} route not contiguous at link {eid}")
                    at = None
                    break
                visited_nodes.add(link.src)
                visited_nodes.add(link.dst)
                latency += link.prop_delay
                agg_link[eid] = agg_link.get(eid, 0.0) + svc.bandwidth
                at = link.dst
            if at is not None and at != anchors[h + 1]:
                violations.append(f"{tag}: hop {h} ends at {at}, expected {anchors[h + 1]}")

        for pos, node in semb.placement.items():
            fid = chain[pos]
            visited_nodes.add(node)
            latency += slc.vnf_catalog[fid].vnf.proc_delay
            if shared_vnf_per_slice:
                if (fid, node) in seen_fv:
                    continue
                seen_fv.add((fid, node))
            for r, amount in enumerate(slc.vnf_catalog[fid].vnf.demand):
                if amount:
                    agg_node[(node, r)] = agg_node.get((node, r), 0.0) + amount

        if latency > svc.max_latency + _EPS:
            violations.append(f"{tag}: latency {latency:g} exceeds bound {svc.max_latency:g}")

        for node in sorted(visited_nodes):
            if node in net.nodes and net.nodes[node].operator_id not in allowed:
                violations.append(
                    f"{tag}: trust: node {node} belongs to disallowed operator "
                    f"{net.nodes[node].operator_id}")

    for eid in sorted(agg_link):
        link = net.links[eid]
        if state.link_used(eid) + agg_link[eid] > link.capacity + _EPS:
            violations.append(
                f"capacity: link {eid} needs {agg_link[eid]:g} on top of "
                f"{state.link_used(eid):g}, capacity {link.capacity:g}")
    for (vid, r) in sorted(agg_node):
        cap = net.nodes[vid].capacity[r]
        if state.node_used(vid, r) + agg_node[(vid, r)] > cap + _EPS:
            violations.append(
                f"capacity: node {vid} resource {r} needs {agg_node[(vid, r)]:g} "
                f"on top of {state.node_used(vid, r):g}, capacity {cap:g}")
    return violations


# ---------------------------------------------------------------------------
# Scenario / request file I/O
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """A loaded scenario: substrate, trust, VNF catalog, workload description
    and pricing parameters taken verbatim from the file."""
    net: PhysicalNetwork
    trust: TrustRelation
    vnfs: dict[int, Vnf]
    slice_types: list[dict]
    workload: dict
    pricing: dict
    units: str = ""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _finite(x, what: str) -> float:
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} is not a number") from None
    _require(math.isfinite(v), f"{what} must be finite")
    return v


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Raises ScenarioError naming the first violated invariant. Undirected
    links (the default) are expanded into forward and reverse directed links.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    for key in ("resources", "operators", "nodes", "links", "trust", "vnfs"):
        _require(key in doc, f"missing top-level key '{key}'")

    resources = []
    for i, r in enumerate(doc["resources"]):
        resources.append(Resource(int(r["id"]), str(r["name"])))
    ids = [r.id for r in resources]
    _require(ids == list(range(len(ids))), "resource ids must be dense 0..|R|-1")
    _require(len({r.name for r in resources}) == len(resources), "resource names unique")
    nres = len(resources)

    operators = [Operator(int(o["id"]), str(o.get("name", f"op{o['id']}")))
                 for o in doc["operators"]]
    op_ids = sorted(o.id for o in operators)
    _require(len(set(op_ids)) == len(op_ids), "operator ids unique")
    _require(op_ids == list(range(1, len(op_ids) + 1)), "operator ids must be dense 1..N")

    nodes = []
    for n in doc["nodes"]:
        is_fn = bool(n.get("is_function_node", False))
        cap = tuple(_finite(x, f"node {n['id']} capacity") for x in n.get("capacity", [0.0] * nres))
        price = tuple(_finite(x, f"node {n['id']} unit_price") for x in n.get("unit_price", [0.0] * nres))
        _require(len(cap) == nres, f"node {n['id']}: capacity vector length must be {nres}")
        _require(len(price) == nres, f"node {n['id']}: unit_price vector length must be {nres}")
        _require(all(x >= 0 for x in cap), f"node {n['id']}: capacity >= 0")
        _require(all(x >= 0 for x in price), f"node {n['id']}: unit_price >= 0")
        if not is_fn:
            _require(all(x == 0 for x in cap),
                     f"node {n['id']}: only function nodes carry capacity")
        nodes.append(PhysNode(int(n["id"]), int(n["operator_id"]), is_fn, cap, price))
    node_ids = {n.id for n in nodes}
    _require(len(node_ids) == len(nodes), "node ids unique")
    for n in nodes:
        _require(n.operator_id in set(op_ids), f"node {n.id}: unknown operator {n.operator_id}")

    links = []
    next_id = 0
    for raw in doc["links"]:
        a, b = (int(raw["endpoints"][0]), int(raw["endpoints"][1]))
        cap = _finite(raw["capacity"], f"link {raw.get('id', next_id)} capacity")
        delay = _finite(raw.get("prop_delay", 0.0), "link prop_delay")
        price = _finite(raw.get("unit_price", 0.0), "link unit_price")
        _require(cap > 0, "capacity > 0")
        _require(delay >= 0, "prop_delay >= 0")
        _require(price >= 0, "unit_price >= 0")
        _require(a != b, "no self-loops")
        _require(a in node_ids and b in node_ids, f"link endpoints ({a},{b}) must exist")
        links.append(PhysLink(next_id, a, b, cap, delay, price))
        next_id += 1
        if not raw.get("directed", False):
            links.append(PhysLink(next_id, b, a, cap, delay, price))
            next_id += 1

    trust_doc = doc["trust"]
    pairs = []
    for i_str, targets in trust_doc.items():
        for j in targets:
            pairs.append((int(i_str), int(j)))
    trust = TrustRelation(op_ids, pairs)

    vnfs = {}
    for v in doc["vnfs"]:
        demand = tuple(_finite(x, f"vnf {v['id']} demand") for x in v["demand"])
        delay = _finite(v.get("proc_delay", 0.0), f"vnf {v['id']} proc_delay")
        _require(delay >= 0, f"vnf {v['id']}: proc_delay >= 0")
        _require(len(demand) == nres, f"vnf {v['id']}: demand vector length must be {nres}")
        _require(all(x >= 0 for x in demand), f"vnf {v['id']}: demand >= 0")
        vnf = Vnf(int(v["id"]), str(v.get("name", f"vnf{v['id']}")), delay, demand)
        _require(vnf.id not in vnfs, f"duplicate vnf id {vnf.id}")
        vnfs[vnf.id] = vnf

    net = PhysicalNetwork(resources, operators, nodes, links)
    return Scenario(
        net=net,
        trust=trust,
        vnfs=vnfs,
        slice_types=list(doc.get("slice_types", [])),
        workload=dict(doc.get("workload", {})),
        pricing=dict(doc.get("pricing", {"mode": "static"})),
        units=str(doc.get("_units", "")),
    )


def request_from_dict(doc: dict, scenario: Scenario) -> SliceRequest:
    """Build and validate a SliceRequest against a loaded scenario."""
    net = scenario.net
    _require("services" in doc, "request missing 'services'")
    catalog: dict[int, SliceVnf] = {}
    for entry in doc.get("vnf_catalog", []):
        fid = int(entry["vnf_id"])
        _require(fid in scenario.vnfs, f"request references unknown vnf {fid}")
        deploy = tuple(int(x) for x in entry["deploy_nodes"])
        _require(len(deploy) > 0, f"vnf {fid}: deployment set must be nonempty")
        for v in deploy:
            _require(v in net.nodes and net.nodes[v].is_function_node,
                     f"vnf {fid}: deployment node {v} must be a function node")
        if len(set(deploy)) < len(deploy):
            twice = next(v for i, v in enumerate(deploy) if v in deploy[:i])
            raise ScenarioError(f"vnf {fid}: deployment node {twice} is listed twice")
        catalog[fid] = SliceVnf(
            vnf=scenario.vnfs[fid],
            agg_bandwidth=_finite(entry["agg_bandwidth"], f"vnf {fid} agg_bandwidth"),
            deploy_nodes=deploy,
        )

    services = []
    for s in doc["services"]:
        bw = _finite(s["bandwidth"], "service bandwidth")
        lat = _finite(s["max_latency"], "service max_latency")
        _require(bw > 0, "bandwidth > 0")
        _require(lat > 0, "max_latency > 0")
        src, dst = int(s["source"]), int(s["sink"])
        _require(src in net.nodes and dst in net.nodes, "service endpoints must exist")
        _require(src != dst, "source != sink")
        seq = tuple(int(f) for f in s.get("vnf_sequence", []))
        for f in seq:
            _require(f in catalog, f"service chain references vnf {f} missing from catalog")
        services.append(ServiceChain(int(s["id"]), src, dst, seq, bw, lat))
    _require(len({s.id for s in services}) == len(services), "service ids unique")

    # lambda_f consistency: aggregate bandwidth equals the sum over services
    # whose chain contains f
    for fid, slot in catalog.items():
        expected = sum(s.bandwidth for s in services if fid in s.vnf_sequence)
        _require(abs(expected - slot.agg_bandwidth) <= 1e-9,
                 f"lambda_f consistency: vnf {fid} declares {slot.agg_bandwidth:g}, "
                 f"chains sum to {expected:g}")

    origin = int(doc["origin_operator"])
    _require(origin in net.operators, f"unknown origin operator {origin}")
    allow = frozenset(int(x) for x in doc.get("allow_operators", []))
    deny = frozenset(int(x) for x in doc.get("deny_operators", []))
    _require(not (allow & deny), "allow-list and deny-list must be disjoint")
    for op in allow | deny:
        _require(op in net.operators, f"trust list references unknown operator {op}")

    return SliceRequest(
        id=str(doc.get("id", "request")),
        origin_operator=origin,
        allow_operators=allow,
        deny_operators=deny,
        services=tuple(services),
        vnf_catalog=catalog,
        arrival_time=_finite(doc.get("arrival_time", 0.0), "arrival_time"),
        holding_time=_finite(doc.get("holding_time", 1.0), "holding_time"),
    )


def load_request(path, scenario: Scenario) -> SliceRequest:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read request: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"request is not valid JSON: {exc}") from exc
    return request_from_dict(doc, scenario)


def request_to_dict(slc: SliceRequest) -> dict:
    return {
        "id": slc.id,
        "origin_operator": slc.origin_operator,
        "allow_operators": sorted(slc.allow_operators),
        "deny_operators": sorted(slc.deny_operators),
        "arrival_time": slc.arrival_time,
        "holding_time": slc.holding_time,
        "vnf_catalog": [
            {
                "vnf_id": fid,
                "agg_bandwidth": slot.agg_bandwidth,
                "deploy_nodes": list(slot.deploy_nodes),
            }
            for fid, slot in sorted(slc.vnf_catalog.items())
        ],
        "services": [
            {
                "id": s.id,
                "source": s.source,
                "sink": s.sink,
                "vnf_sequence": list(s.vnf_sequence),
                "bandwidth": s.bandwidth,
                "max_latency": s.max_latency,
            }
            for s in slc.services
        ],
    }


def embedding_to_dict(emb: Embedding) -> dict:
    return {
        "slice_id": emb.slice_id,
        "total_cost": emb.total_cost,
        "services": [
            {
                "service_id": s.service_id,
                "placement": {str(k): v for k, v in sorted(s.placement.items())},
                "routes": [list(r) for r in s.routes],
                "latency": s.latency,
                "cost": s.cost,
            }
            for s in emb.services
        ],
    }
