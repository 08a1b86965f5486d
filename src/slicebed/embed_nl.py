"""Node-Link ILP: exact per-request embedding over the physical network.

Builds one integer program per slice request, solves it with
branch-and-bound, and decodes the assignment back into placements and
physical routes. This is the benchmark engine; the path-based engine in
embed_pl trades optimality for speed.

The program is a unit flow per service on the layered graph that embed_pl
searches (``expand.build_expanded``). For a chain f_1..f_m, layer h carries
hop h of source -> f_1 -> ... -> f_m -> sink: link copies route within a
layer, and the processing edge from node v in layer h to v in layer h+1
places f_{h+1} at v. Each processing edge whose node has room for the VNF
becomes a placement binary x[f,v], and each link copy with room for the
service's bandwidth a routing binary y[g,h,e]. With shared accounting the
processing edges of one VNF id share their x columns.

Constraints, per service g:

  C1  each chain position picks exactly one deployment node
  C2  flow conservation at every layered node: out - in is 1 at the source
      in layer 0, -1 at the sink in layer m and 0 elsewhere
  C3  link capacity against current residuals
  C4  node resources against current residuals
  C5  end-to-end latency: link delays plus fixed processing delays

The graph holds only the nodes and links of the operators the slice trusts,
so the model never sees disallowed ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .expand import VNF, ExpandedNetwork, UnreachableEndpoints, build_expanded
from .milp import BINARY, IlpModel, IlpSolution, MilpError, branch_and_bound
from .model import (Blocked, Embedding, PhysicalNetwork, ResidualState,
                    ServiceEmbedding, SliceRequest, TrustRelation,
                    UntrustableRequest, allowed_operators, blocked_by_solver)
from .pricing import PriceSnapshot

_EPS = 1e-9


@dataclass
class NlMeta:
    """Decode metadata: variable ids by role."""
    shared: bool
    # default mode: (service_id, position) -> {node: var};
    # shared mode:  vnf_id -> {node: var}
    x_groups: dict = field(default_factory=dict)
    # (service_id, hop, link_id) -> var
    y_vars: dict = field(default_factory=dict)


def _placement_key(svc_id: int, pos: int, fid: int, shared: bool):
    return fid if shared else (svc_id, pos)


def _edges_by_layer(exp: ExpandedNetwork):
    """Per layer of ``exp``: its processing edges as (node id, edge) in node
    order, and its link copies as (link id, edge) in link id order."""
    n = len(exp.substrate_nodes)
    placing = [[] for _ in range(exp.num_layers)]
    routing = [[] for _ in range(exp.num_layers)]
    for i, out in enumerate(exp.arcs):
        layer, at = divmod(i, n)
        for _, _, e in out:
            if exp.edge_kind[e] == VNF:
                placing[layer].append((exp.substrate_nodes[at], e))
            else:
                routing[layer].append((exp.edge_ref[e], e))
    for links in routing:
        links.sort()
    return placing, routing


def build_nl(net: PhysicalNetwork, trust: TrustRelation, state: ResidualState,
             slc: SliceRequest, prices: PriceSnapshot,
             shared_vnf_per_slice: bool = False):
    """Build the Node-Link model for one request.

    Returns (IlpModel, NlMeta), or Blocked when trust filtering leaves no
    admissible placement or endpoint before any solving is needed.
    Raises UntrustableRequest if the trusted operator set is empty.
    """
    allowed = allowed_operators(slc, trust)
    layered = []
    for svc in slc.services:
        try:
            exp = build_expanded(net, svc, slc, allowed, prices)
        except UnreachableEndpoints:
            return Blocked("unreachable_endpoints",
                           f"service {svc.id}: endpoint operator not trusted")
        layered.append((svc, exp, *_edges_by_layer(exp)))

    model = IlpModel()
    meta = NlMeta(shared=shared_vnf_per_slice)

    # --- placement variables (C1 groups) ------------------------------------
    node_rows: dict[tuple[int, int], dict[int, float]] = {}
    for svc, exp, placing, _ in layered:
        for pos, fid in enumerate(svc.vnf_sequence):
            key = _placement_key(svc.id, pos, fid, shared_vnf_per_slice)
            if key in meta.x_groups:
                continue
            if not placing[pos]:
                return Blocked("no_placement_nodes",
                               f"vnf {fid}: no trusted deployment node")
            demand = slc.vnf_catalog[fid].vnf.demand
            fitting = [(v, e) for v, e in placing[pos]
                       if all(amount <= state.node_residual(v, r) + _EPS
                              for r, amount in enumerate(demand) if amount)]
            if not fitting:
                return Blocked("infeasible",
                               f"vnf {fid}: no deployment node with residual capacity")
            group = meta.x_groups[key] = {}
            for v, e in fitting:
                var = group[v] = model.add_variable(f"x_{key}_{v}", BINARY,
                                                    obj=exp.edge_cost[e])
                for r, amount in enumerate(demand):
                    if amount:
                        node_rows.setdefault((v, r), {})[var] = amount
            model.add_constraint({var: 1.0 for var in group.values()}, "=", 1.0,
                                 name=f"C1_{key}")

    # --- routing variables and C2, service by service -----------------------
    link_rows: dict[int, dict[int, float]] = {}
    delay_rows = []
    for svc, exp, placing, routing in layered:
        column: list[int | None] = [None] * exp.num_edges
        for pos, fid in enumerate(svc.vnf_sequence):
            group = meta.x_groups[_placement_key(svc.id, pos, fid,
                                                 shared_vnf_per_slice)]
            for v, e in placing[pos]:
                column[e] = group.get(v)
        delays = {}
        for h, links in enumerate(routing):
            for eid, e in links:
                if svc.bandwidth > state.link_residual(eid) + _EPS:
                    continue        # this service can never fit on the link
                var = meta.y_vars[(svc.id, h, eid)] = model.add_variable(
                    f"y_{svc.id}_{h}_{eid}", BINARY, obj=exp.edge_cost[e])
                column[e] = var
                link_rows.setdefault(eid, {})[var] = svc.bandwidth
                delays[var] = exp.edge_latency[e]
        delay_rows.append(delays)

        flow: list[dict[int, float]] = [{} for _ in range(exp.num_nodes)]
        for i, out in enumerate(exp.arcs):
            for dst, _, e in out:
                var = column[e]
                if var is not None:
                    flow[i][var] = flow[i].get(var, 0.0) + 1.0
                    flow[dst][var] = flow[dst].get(var, 0.0) - 1.0
        for i, row in enumerate(flow):
            # a shared x column leaving and entering one node cancels out
            coeffs = {var: c for var, c in row.items() if c}
            rhs = float(i == exp.source_index) - float(i == exp.target_index)
            if coeffs or rhs:
                h, v = exp.node(i)
                model.add_constraint(coeffs, "=", rhs, name=f"C2_{svc.id}_{h}_{v}")

    # --- C3: link capacity --------------------------------------------------
    for eid in sorted(link_rows):
        model.add_constraint(link_rows[eid], "<=", max(0.0, state.link_residual(eid)),
                             name=f"C3_{eid}")

    # --- C4: node resources -------------------------------------------------
    for (v, r) in sorted(node_rows):
        model.add_constraint(node_rows[(v, r)], "<=",
                             max(0.0, state.node_residual(v, r)),
                             name=f"C4_{v}_{r}")

    # --- C5: latency budget -------------------------------------------------
    for svc, delays in zip(slc.services, delay_rows):
        fixed = sum(slc.vnf_catalog[f].vnf.proc_delay for f in svc.vnf_sequence)
        model.add_constraint(delays, "<=", svc.max_latency - fixed,
                             name=f"C5_{svc.id}")

    return model, meta


def _trace_route(net, chosen: list[int], origin: int, dest: int) -> tuple[int, ...]:
    """Simple path from origin to dest inside the chosen link set.

    Flow conservation guarantees such a path exists; any leftover circulation
    in the assignment is dropped. Deterministic: neighbors tried in link-id
    order.
    """
    if origin == dest:
        return ()
    adj: dict[int, list[int]] = {}
    for eid in sorted(chosen):
        adj.setdefault(net.links[eid].src, []).append(eid)
    stack = [(origin, iter(adj.get(origin, ())))]
    on_path = {origin}
    edges: list[int] = []
    while stack:
        node, it = stack[-1]
        advanced = False
        for eid in it:
            nxt = net.links[eid].dst
            if nxt in on_path:
                continue
            edges.append(eid)
            if nxt == dest:
                return tuple(edges)
            on_path.add(nxt)
            stack.append((nxt, iter(adj.get(nxt, ()))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if edges:
                edges.pop()
            if stack:
                on_path.discard(node)
    raise MilpError(f"no route from {origin} to {dest} in solver assignment")


def decode_nl(net: PhysicalNetwork, slc: SliceRequest, prices: PriceSnapshot,
              meta: NlMeta, sol: IlpSolution) -> Embedding:
    """Turn a solver assignment into an Embedding with recomputed costs.

    Costs and latencies are recomputed from the decoded placement/routes, so
    any cost-neutral circulation present in the raw assignment is excluded.
    """
    assignment = sol.assignment
    services = []
    total = 0.0
    seen_fv = set()     # (fid, node) pairs already charged in shared mode
    for svc in slc.services:
        m = len(svc.vnf_sequence)
        placement = {}
        for pos in range(m):
            fid = svc.vnf_sequence[pos]
            key = _placement_key(svc.id, pos, fid, meta.shared)
            node = None
            for v, var in sorted(meta.x_groups[key].items()):
                if assignment[var] > 0.5:
                    node = v
                    break
            if node is None:
                raise MilpError(f"no placement chosen for vnf {fid}")
            placement[pos] = node
        anchors = [svc.source] + [placement[i] for i in range(m)] + [svc.sink]
        routes = []
        for h in range(m + 1):
            chosen = [eid for (sid, hh, eid), var in meta.y_vars.items()
                      if sid == svc.id and hh == h and assignment[var] > 0.5]
            routes.append(_trace_route(net, chosen, anchors[h], anchors[h + 1]))
        latency = sum(net.links[eid].prop_delay for rt in routes for eid in rt)
        latency += sum(slc.vnf_catalog[f].vnf.proc_delay for f in svc.vnf_sequence)
        cost = sum(prices.link[eid] * svc.bandwidth for rt in routes for eid in rt)
        for pos, v in placement.items():
            fid = svc.vnf_sequence[pos]
            if meta.shared:
                # shared placements are charged once per (vnf, node) pair,
                # attributed to the first service that uses them
                if (fid, v) in seen_fv:
                    continue
                seen_fv.add((fid, v))
            cost += prices.placement_cost(net, v, slc.vnf_catalog[fid].vnf.demand)
        services.append(ServiceEmbedding(svc.id, placement, tuple(routes),
                                         latency, cost))
        total += cost
    return Embedding(slc.id, tuple(services), total,
                     optimal=sol.status == "optimal")


def solve_nl_detailed(net: PhysicalNetwork, trust: TrustRelation,
                      state: ResidualState, slc: SliceRequest,
                      prices: PriceSnapshot, *, time_limit_ms: float | None = None,
                      shared_vnf_per_slice: bool = False):
    """Like solve_nl but also returns the raw IlpSolution (or None)."""
    try:
        built = build_nl(net, trust, state, slc, prices, shared_vnf_per_slice)
    except UntrustableRequest as exc:
        return Blocked("untrustable_request", str(exc)), None
    if isinstance(built, Blocked):
        return built, None
    model, meta = built
    sol = branch_and_bound(model, time_limit_ms=time_limit_ms)
    blocked = blocked_by_solver(sol)
    if blocked is not None:
        return blocked, sol
    return decode_nl(net, slc, prices, meta, sol), sol


def solve_nl(net: PhysicalNetwork, trust: TrustRelation, state: ResidualState,
             slc: SliceRequest, prices: PriceSnapshot, *,
             time_limit_ms: float | None = None,
             shared_vnf_per_slice: bool = False):
    """Solve one request exactly. Returns Embedding or Blocked."""
    result, _ = solve_nl_detailed(net, trust, state, slc, prices,
                                  time_limit_ms=time_limit_ms,
                                  shared_vnf_per_slice=shared_vnf_per_slice)
    return result
