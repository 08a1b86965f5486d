"""Independent oracles used by the test suite.

Everything here recomputes answers from first principles (exact rational
arithmetic, dynamic programming, exhaustive enumeration) and shares no logic
with the package's solvers. The exceptions are the reference layered graph
build, the reference k-shortest search and the reference Node-Link build: the
package's earlier, plainer implementations, kept to check the current ones
edge for edge, path for path and row for row. The solver's own tests also
find here two helpers that the runtime does not need: the LP relaxation
solve and the CPLEX-LP text dump.
"""
import heapq
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from slicebed.model import (Blocked, PhysicalNetwork, ResidualState, SliceRequest,
                            TrustRelation, allowed_operators, request_from_dict,
                            scenario_from_dict)
from slicebed.expand import ExpandedNetwork, UnreachableEndpoints
from slicebed.milp import (BINARY, CONTINUOUS, IlpModel, IlpSolution, LpResult,
                           MilpError, _solve_lp_arrays)
from slicebed.pricing import PriceSnapshot


# ---------------------------------------------------------------------------
# Exact LP oracle: vertex enumeration with Fractions
# ---------------------------------------------------------------------------

def exact_lp_oracle(c, A, rel, b, lb, ub):
    """Minimize c'x subject to A x (rel) b and finite box bounds.

    Exhaustive vertex enumeration in exact rational arithmetic. All bounds
    must be finite, which keeps the feasible set a polytope, so it is either
    empty or has an optimal vertex. Returns (status, Fraction objective|None).
    """
    m, n = A.shape
    cF = [Fraction(x) for x in c]
    AF = [[Fraction(A[i, j]) for j in range(n)] for i in range(m)]
    bF = [Fraction(x) for x in b]
    lbF = [Fraction(x) for x in lb]
    ubF = [Fraction(x) for x in ub]
    if any(l > u for l, u in zip(lbF, ubF)):
        return "infeasible", None

    # candidate tight hyperplanes: every constraint row, every bound
    planes = []
    for i in range(m):
        planes.append((AF[i], bF[i]))
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        planes.append((row, lbF[j]))
        if ubF[j] != lbF[j]:
            planes.append((row, ubF[j]))

    def feasible(x):
        for j in range(n):
            if not (lbF[j] <= x[j] <= ubF[j]):
                return False
        for i in range(m):
            lhs = sum(AF[i][j] * x[j] for j in range(n))
            if rel[i] == "<=" and lhs > bF[i]:
                return False
            if rel[i] == ">=" and lhs < bF[i]:
                return False
            if rel[i] == "=" and lhs != bF[i]:
                return False
        return True

    def solve_square(idx):
        M = [list(planes[i][0]) + [planes[i][1]] for i in idx]
        size = len(idx)
        col = 0
        for row in range(size):
            piv = None
            for r in range(row, size):
                if M[r][col] != 0:
                    piv = r
                    break
            while piv is None and col < n - 1:
                col += 1
                for r in range(row, size):
                    if M[r][col] != 0:
                        piv = r
                        break
            if piv is None:
                return None
            M[row], M[piv] = M[piv], M[row]
            inv = M[row][col]
            M[row] = [v / inv for v in M[row]]
            for r in range(size):
                if r != row and M[r][col] != 0:
                    f = M[r][col]
                    M[r] = [a - f * bb for a, bb in zip(M[r], M[row])]
            col += 1
            if col >= n and row < size - 1:
                return None
        # back out the solution; needs exactly n independent rows
        if size != n:
            return None
        x = [Fraction(0)] * n
        # after full reduction each row should be a unit row
        for row in range(n):
            lead = None
            for j in range(n):
                if M[row][j] != 0:
                    if M[row][j] != 1 or lead is not None:
                        return None
                    lead = j
            if lead is None:
                return None
            x[lead] = M[row][n]
        return x

    best = None
    feasible_found = False
    for idx in itertools.combinations(range(len(planes)), n):
        x = solve_square(list(idx))
        if x is None or not feasible(x):
            continue
        feasible_found = True
        val = sum(cF[j] * x[j] for j in range(n))
        if best is None or val < best:
            best = val
    if not feasible_found:
        return "infeasible", None
    return "optimal", best


# ---------------------------------------------------------------------------
# 0/1 knapsack by dynamic programming
# ---------------------------------------------------------------------------

def knapsack_dp(values, weights, capacity):
    """Max total value with total weight <= capacity (integers)."""
    best = [0] * (capacity + 1)
    for v, w in zip(values, weights):
        for cap in range(capacity, w - 1, -1):
            best[cap] = max(best[cap], best[cap - w] + v)
    return best[capacity]


# ---------------------------------------------------------------------------
# Exhaustive path enumeration
# ---------------------------------------------------------------------------

def dfs_all_expanded_paths(exp: ExpandedNetwork):
    """Every loopless source->target path of an expanded network, each a
    list of ExpEdge objects of ``edge_view(exp)``."""
    exp = edge_view(exp)
    out = []

    def go(node, visited, edges):
        if node == exp.target:
            out.append(list(edges))
            return
        for e in exp.out_edges(node):
            if e.dst in visited:
                continue
            visited.add(e.dst)
            edges.append(e)
            go(e.dst, visited, edges)
            edges.pop()
            visited.remove(e.dst)

    go(exp.source, {exp.source}, [])
    return out


def edge_numbers(exp: ExpandedNetwork, path) -> tuple[int, ...]:
    """The edge numbers of a path given as ExpEdge objects of ``edge_view(exp)``."""
    number = {edge: e for e, edge in enumerate(edge_view(exp).edges)}
    return tuple(number[edge] for edge in path)


# ---------------------------------------------------------------------------
# Reference layered graph: ExpEdge objects, adjacency sorted per node
# ---------------------------------------------------------------------------
# The package's build before it emitted the integer graph directly. It builds
# one ExpEdge per edge and sorts every adjacency list; the package's graph,
# shown through ``edge_view``, must hold the identical edges in the identical
# order.

@dataclass(frozen=True)
class ExpEdge:
    """Edge of a layered graph as the reference build and ``edge_view`` show it.

    kind is "link" (intra-layer copy of physical link ``ref``) or "vnf"
    (processing edge placing chain position ``ref`` at the node).
    """
    src: tuple[int, int]
    dst: tuple[int, int]
    cost: float
    latency: float
    kind: str
    ref: int


class ReferenceExpandedNetwork:
    """Immutable layered graph with costs and latencies baked in at build time."""

    def __init__(self, service, num_layers: int, source, target,
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

    @property
    def edges(self) -> tuple[ExpEdge, ...]:
        """Every edge, in the package's edge-number order: by source node,
        then by (dst, kind, ref)."""
        return tuple(e for node in sorted(self.adjacency) for e in self.adjacency[node])


@lru_cache(maxsize=16)
def edge_view(exp: ExpandedNetwork) -> ReferenceExpandedNetwork:
    """The package's integer graph with (layer, node id) nodes and ExpEdge
    edges, as the reference build shows a graph; ``edges[e]`` is edge ``e``."""
    adjacency = {}
    for i, out in enumerate(exp.arcs):
        node = exp.node(i)
        adjacency[node] = tuple(
            ExpEdge(node, exp.node(dst), exp.edge_cost[e], exp.edge_latency[e],
                    exp.edge_kind[e], exp.edge_ref[e])
            for dst, _, e in out)
    return ReferenceExpandedNetwork(exp.service, exp.num_layers,
                                    exp.node(exp.source_index),
                                    exp.node(exp.target_index), adjacency)


def reference_build_expanded(net, service, slc, allowed, prices):
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
    return ReferenceExpandedNetwork(service, m + 1, (0, service.source),
                                    (m, service.sink), adjacency)


# ---------------------------------------------------------------------------
# Reference k-shortest search: Yen's algorithm with whole-path heap entries
# ---------------------------------------------------------------------------
# The package's search before it adopted Lawler's rule and the integer-indexed
# graph. It spurs from every node of every found path, so it is slow but
# plainly Yen; the package's search must return the identical ordered paths.

def _reference_shortest_path(exp: ReferenceExpandedNetwork):
    """Least-cost source-to-target path, or None if disconnected.

    Among equal-cost paths, returns the one with the lexicographically
    smallest node sequence.
    """
    return _reference_dijkstra(exp, exp.source, banned_nodes=frozenset(),
                               banned_edges=frozenset())


def _reference_dijkstra(exp, start, banned_nodes, banned_edges):
    # Heap entries: (dist, node sequence, edge key sequence, edge sequence).
    # The key sequence keeps ties orderable when parallel edges join the
    # same node pair (ExpEdge itself has no ordering).
    if start in banned_nodes:
        return None
    target = exp.target
    heap = [(0.0, (start,), (), ())]
    done = set()
    while heap:
        dist, nodes, keys, edges = heapq.heappop(heap)
        node = nodes[-1]
        if node in done:
            continue
        done.add(node)
        if node == target:
            return list(edges)
        for e in exp.out_edges(node):
            if e.dst in done or e.dst in banned_nodes:
                continue
            if (e.src, e.dst, e.kind, e.ref) in banned_edges:
                continue
            heapq.heappush(heap, (dist + e.cost,
                                  nodes + (e.dst,), keys + ((e.kind, e.ref),),
                                  edges + (e,)))
    return None


def _path_nodes(exp, path):
    nodes = [exp.source]
    for e in path:
        nodes.append(e.dst)
    return tuple(nodes)


def reference_k_shortest_paths(exp: ReferenceExpandedNetwork, k: int):
    """Up to k least-cost loopless paths in nondecreasing cost, on a graph
    as the reference build or ``edge_view`` shows it.

    Yen's deviation search. Deterministic: candidate ordering is
    (cost, node sequence).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    first = _reference_shortest_path(exp)
    if first is None:
        return []

    def keys_of(path):
        return tuple((e.kind, e.ref) for e in path)

    found = [first]
    found_keys = [keys_of(first)]
    pool: list = []        # (cost, node seq, edge key seq, edge list)
    seen = {found_keys[0]}

    while len(found) < k:
        prev = found[-1]
        prev_nodes = _path_nodes(exp, prev)
        prev_keys = found_keys[-1]
        for i in range(len(prev)):
            spur_node = prev_nodes[i]
            root = prev[:i]
            root_keys = prev_keys[:i]
            root_cost = sum(e.cost for e in root)

            banned_edges = set()
            for p, pk in zip(found, found_keys):
                if pk[:i] == root_keys and len(p) > i:
                    e = p[i]
                    banned_edges.add((e.src, e.dst, e.kind, e.ref))
            banned_nodes = frozenset(prev_nodes[:i])

            spur = _reference_dijkstra(exp, spur_node, banned_nodes,
                                       frozenset(banned_edges))
            if spur is None:
                continue
            total = list(root) + spur
            total_keys = keys_of(total)
            if total_keys in seen:
                continue
            seen.add(total_keys)
            w = root_cost + sum(e.cost for e in spur)
            heapq.heappush(pool, (w, _path_nodes(exp, total), total_keys, total))
        if not pool:
            break
        _, _, keys, path = heapq.heappop(pool)
        found.append(path)
        found_keys.append(keys)
    return found


def all_simple_routes(net, allowed_nodes, src, dst):
    """Every simple route (list of directed link ids) src->dst."""
    if src == dst:
        return [()]
    adj = {}
    for eid in sorted(net.links):
        link = net.links[eid]
        if link.src in allowed_nodes and link.dst in allowed_nodes:
            adj.setdefault(link.src, []).append(eid)
    out = []

    def go(node, visited, route):
        if node == dst:
            out.append(tuple(route))
            return
        for eid in adj.get(node, ()):
            nxt = net.links[eid].dst
            if nxt in visited:
                continue
            visited.add(nxt)
            route.append(eid)
            go(nxt, visited, route)
            route.pop()
            visited.remove(nxt)

    go(src, {src}, [])
    return out


# ---------------------------------------------------------------------------
# Brute-force minimum-cost embedding
# ---------------------------------------------------------------------------

def brute_force_embedding(scn, req, snap, state=None):
    """Minimum total cost over all joint (placement, routes) combinations.

    Checks trust, latency and joint capacities exhaustively. Returns the
    optimal cost, or None when no feasible combination exists. ``state``
    supplies residual capacities (fresh network if omitted).
    """
    net = scn.net
    link_residual = (state.link_residual if state is not None
                     else lambda e: net.links[e].capacity)
    node_residual = (state.node_residual if state is not None
                     else lambda v, r: net.nodes[v].capacity[r])
    try:
        allowed_ops = allowed_operators(req, scn.trust)
    except Exception:
        return None
    allowed = {v for v, n in net.nodes.items() if n.operator_id in allowed_ops}

    per_service = []
    for svc in req.services:
        if svc.source not in allowed or svc.sink not in allowed:
            return None
        site_sets = []
        for fid in svc.vnf_sequence:
            sites = [v for v in req.vnf_catalog[fid].deploy_nodes if v in allowed]
            if not sites:
                return None
            site_sets.append(sites)
        options = []
        for placement in itertools.product(*site_sets):
            anchors = [svc.source] + list(placement) + [svc.sink]
            route_sets = [all_simple_routes(net, allowed, anchors[h], anchors[h + 1])
                          for h in range(len(anchors) - 1)]
            if any(not rs for rs in route_sets):
                continue
            for routes in itertools.product(*route_sets):
                lat = sum(net.links[e].prop_delay for rt in routes for e in rt)
                lat += sum(req.vnf_catalog[f].vnf.proc_delay
                           for f in svc.vnf_sequence)
                if lat > svc.max_latency + 1e-9:
                    continue
                cost = sum(snap.link[e] * svc.bandwidth
                           for rt in routes for e in rt)
                link_u, node_u = {}, {}
                for rt in routes:
                    for e in rt:
                        link_u[e] = link_u.get(e, 0.0) + svc.bandwidth
                for pos, v in enumerate(placement):
                    demand = req.vnf_catalog[svc.vnf_sequence[pos]].vnf.demand
                    cost += snap.placement_cost(net, v, demand)
                    for r, amt in enumerate(demand):
                        if amt:
                            node_u[(v, r)] = node_u.get((v, r), 0.0) + amt
                options.append((cost, link_u, node_u))
        if not options:
            return None
        per_service.append(options)

    best = None
    for combo in itertools.product(*per_service):
        link_u, node_u, cost = {}, {}, 0.0
        for c, lu, nu in combo:
            cost += c
            for e, a in lu.items():
                link_u[e] = link_u.get(e, 0.0) + a
            for key, a in nu.items():
                node_u[key] = node_u.get(key, 0.0) + a
        if all(a <= link_residual(e) + 1e-9 for e, a in link_u.items()) and \
           all(a <= node_residual(v, r) + 1e-9 for (v, r), a in node_u.items()):
            if best is None or cost < best - 1e-12:
                best = cost
    return best


# ---------------------------------------------------------------------------
# Random instance generators (tiny scale for exhaustive checking)
# ---------------------------------------------------------------------------

def tiny_scenario(rng, max_nodes=4):
    """Random scenario with <= max_nodes nodes and 2 vnf types."""
    n = rng.randint(3, max_nodes)
    n_ops = rng.randint(1, 2)
    nodes = []
    for i in range(n):
        is_fn = rng.random() < 0.8
        nodes.append({
            "id": i, "operator_id": rng.randint(1, n_ops),
            "is_function_node": is_fn,
            "capacity": [float(rng.randint(2, 6))] if is_fn else [0.0],
            "unit_price": [round(rng.uniform(0, 2), 1)] if is_fn else [0.0],
        })
    links = []
    for i in range(n):
        links.append({"endpoints": [i, (i + 1) % n],
                      "capacity": float(rng.randint(1, 4)),
                      "prop_delay": round(rng.uniform(0.1, 1.5), 1),
                      "unit_price": round(rng.uniform(0, 2), 1)})
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        links.append({"endpoints": [a, b],
                      "capacity": float(rng.randint(1, 4)),
                      "prop_delay": round(rng.uniform(0.1, 1.5), 1),
                      "unit_price": round(rng.uniform(0, 2), 1)})
    trust = {str(i): sorted({i} | {j for j in range(1, n_ops + 1)
                                   if rng.random() < 0.7})
             for i in range(1, n_ops + 1)}
    return scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": i} for i in range(1, n_ops + 1)],
        "nodes": nodes,
        "links": links,
        "trust": trust,
        "vnfs": [{"id": 0, "name": "f0", "proc_delay": 0.3, "demand": [1.0]},
                 {"id": 1, "name": "f1", "proc_delay": 0.1, "demand": [2.0]}],
    })


def tiny_request(rng, scn, max_chain=2):
    """Random request (1-2 services, chains <= max_chain) or None."""
    net = scn.net
    fnodes = [v for v, nd in net.nodes.items() if nd.is_function_node]
    if not fnodes:
        return None
    services, fids_used = [], set()
    for sid in range(rng.randint(1, 2)):
        seq = [rng.choice([0, 1]) for _ in range(rng.randint(0, max_chain))]
        fids_used |= set(seq)
        src, dst = rng.sample(sorted(net.nodes), 2)
        services.append({"id": sid, "source": src, "sink": dst,
                         "vnf_sequence": seq,
                         "bandwidth": float(rng.randint(1, 2)),
                         "max_latency": rng.choice([2.0, 4.0, 100.0])})
    catalog = []
    for fid in sorted(fids_used):
        agg = sum(s["bandwidth"] for s in services if fid in s["vnf_sequence"])
        catalog.append({"vnf_id": fid, "agg_bandwidth": agg,
                        "deploy_nodes": sorted(rng.sample(
                            fnodes, rng.randint(1, len(fnodes))))})
    return request_from_dict({
        "id": "r", "origin_operator": rng.randint(1, len(net.operators)),
        "services": services, "vnf_catalog": catalog,
    }, scn)


def medium_template(scn, services=(1, 1)):
    """The request template used by medium_instance, for drawing extra load."""
    from slicebed.sim import SliceTypeTemplate

    return SliceTypeTemplate(
        name="medium", weight=1.0, bandwidth=(2, 4),
        max_latency=(25.0, 40.0), chain_length=(3, 3),
        vnf_pool=tuple(sorted(scn.vnfs)), services=services,
        deny_fraction=0.1, deploy_fraction=0.8)


def medium_instance(seed, services=(1, 1)):
    """One ~30-node, 3-operator scenario plus a chains-of-3 request.

    Returns (scenario, request); request is None for the rare draw without a
    reachable sink (callers skip those seeds).
    """
    from slicebed.sim import ScenarioGen, generate_scenario, sample_request

    doc = generate_scenario(ScenarioGen(operators=3, nodes_per_operator=(9, 11)),
                            seed)
    scn = scenario_from_dict(doc)
    rng = np.random.default_rng(seed + 7_000_000)
    _, req = sample_request(rng, scn, [medium_template(scn, services)],
                            f"m{seed}", 0.0, 1.0)
    return scn, req


def random_ilp_model(rng, max_binaries=8, max_rows=5):
    """Random small pure-binary model (for oracle equivalence testing)."""
    n = rng.randint(1, max_binaries)
    model = IlpModel()
    for j in range(n):
        model.add_variable(f"b{j}", BINARY, obj=rng.randint(-5, 5))
    for i in range(rng.randint(0, max_rows)):
        coeffs = {j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.7}
        if not coeffs:
            continue
        rel = rng.choice(["<=", ">=", "="])
        model.add_constraint(coeffs, rel, rng.randint(-3, 6), name=f"r{i}")
    return model


# ---------------------------------------------------------------------------
# Solver helpers that only the tests use
# ---------------------------------------------------------------------------
# Exhaustive enumeration is the reference optimum for tiny models; the LP
# relaxation and the CPLEX-LP text dump serve the solver's own tests.

_ENUM_LIMIT = 22


def solve_lp_relaxation(model: IlpModel) -> LpResult:
    """Solve the LP relaxation (binaries relaxed to [0,1])."""
    c, A, rel, b, lb, ub = model.arrays()
    return _solve_lp_arrays(c, A, rel, b, lb, ub)


def enumerate_oracle(model: IlpModel) -> IlpSolution:
    """Scan all binary assignments; exact reference optimum for tiny models."""
    t0 = time.perf_counter()
    k = len(model.variables)
    if any(v.kind != BINARY for v in model.variables):
        raise MilpError("enumerate_oracle handles pure binary models only")
    if k > _ENUM_LIMIT:
        raise MilpError(f"enumerate_oracle limited to {_ENUM_LIMIT} binaries, got {k}")
    c, A, rel, b, lb, ub = model.arrays()
    if k == 0:
        feasible = True
        for i, r in enumerate(rel):
            lhs = 0.0
            if r == "<=" and lhs > b[i] + 1e-9:
                feasible = False
            elif r == ">=" and lhs < b[i] - 1e-9:
                feasible = False
            elif r == "=" and abs(lhs - b[i]) > 1e-9:
                feasible = False
        if not feasible:
            return IlpSolution("infeasible", None, None, 1, time.perf_counter() - t0)
        return IlpSolution("optimal", np.zeros(0), 0.0, 1, time.perf_counter() - t0)

    le = np.array([r == "<=" for r in rel])
    ge = np.array([r == ">=" for r in rel])
    eq = np.array([r == "=" for r in rel])

    best_obj = np.inf
    best_x = None
    total = 1 << k
    chunk = 1 << 16
    shifts = np.arange(k, dtype=np.uint32)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        X = ((idx[:, None] >> shifts) & 1).astype(float)
        ok = np.all((X >= lb - 1e-9) & (X <= ub + 1e-9), axis=1)
        if A.shape[0]:
            lhs = X @ A.T
            if le.any():
                ok &= np.all(lhs[:, le] <= b[le] + 1e-9, axis=1)
            if ge.any():
                ok &= np.all(lhs[:, ge] >= b[ge] - 1e-9, axis=1)
            if eq.any():
                ok &= np.all(np.abs(lhs[:, eq] - b[eq]) <= 1e-9, axis=1)
        if not ok.any():
            continue
        objs = X[ok] @ c
        pos = int(np.argmin(objs))
        if objs[pos] < best_obj - 1e-15:
            best_obj = float(objs[pos])
            best_x = X[ok][pos].copy()
    wall = time.perf_counter() - t0
    if best_x is None:
        return IlpSolution("infeasible", None, None, total, wall)
    return IlpSolution("optimal", best_x, best_obj, total, wall)


def write_lp_format(model: IlpModel) -> str:
    """CPLEX-LP style text dump for cross-checking with external solvers."""
    def term(coef, name, first):
        sign = "-" if coef < 0 else ("" if first else "+")
        return f" {sign} {abs(coef):.12g} {name}".rstrip()

    lines = ["\\ " + model.name, "Minimize", " obj:"]
    parts = []
    for i, v in enumerate(model.variables):
        if v.obj:
            parts.append(term(v.obj, v.name or f"x{i}", not parts))
    lines[-1] += "".join(parts) if parts else " 0 x0" if model.variables else " 0"
    lines.append("Subject To")
    for i, row in enumerate(model.constraints):
        parts = []
        for j, coef in row.coeffs:
            parts.append(term(coef, model.variables[j].name or f"x{j}", not parts))
        op = {"<=": "<=", ">=": ">=", "=": "="}[row.relation]
        lines.append(f" {row.name or 'c%d' % i}:{''.join(parts)} {op} {row.rhs:.12g}")
    lines.append("Bounds")
    for i, v in enumerate(model.variables):
        if v.kind == CONTINUOUS:
            lo = f"{v.lb:.12g}" if np.isfinite(v.lb) else "-inf"
            hi = f"{v.ub:.12g}" if np.isfinite(v.ub) else "+inf"
            lines.append(f" {lo} <= {v.name or 'x%d' % i} <= {hi}")
        elif (v.lb, v.ub) != (0.0, 1.0):
            lines.append(f" {v.lb:.12g} <= {v.name or 'x%d' % i} <= {v.ub:.12g}")
    binaries = [v.name or f"x{i}" for i, v in enumerate(model.variables) if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference Node-Link build: its own trust filter and per-hop layering
# ---------------------------------------------------------------------------
# The package's build before it read the model off the layered graph. It
# filters trust, lists the allowed links and lays out the hops itself; the
# package's model must have the identical variables and constraints, in the
# identical order.

_EPS = 1e-9


@dataclass
class ReferenceNlMeta:
    """Decode metadata: variable ids by role."""
    allowed_nodes: frozenset[int]
    shared: bool
    # default mode: (service_id, position) -> {node: var};
    # shared mode:  vnf_id -> {node: var}
    x_groups: dict = field(default_factory=dict)
    # (service_id, hop, link_id) -> var
    y_vars: dict = field(default_factory=dict)


def _reference_placement_key(svc_id: int, pos: int, fid: int, shared: bool):
    return fid if shared else (svc_id, pos)


def reference_build_nl(net: PhysicalNetwork, trust: TrustRelation,
                       state: ResidualState, slc: SliceRequest,
                       prices: PriceSnapshot, shared_vnf_per_slice: bool = False):
    """Build the Node-Link model for one request.

    Returns (IlpModel, ReferenceNlMeta), or Blocked when trust filtering
    leaves no admissible placement or endpoint before any solving is needed.
    Raises UntrustableRequest if the trusted operator set is empty.
    """
    allowed_ops = allowed_operators(slc, trust)
    allowed_nodes = frozenset(v for v, n in net.nodes.items()
                              if n.operator_id in allowed_ops)
    for svc in slc.services:
        if svc.source not in allowed_nodes or svc.sink not in allowed_nodes:
            return Blocked("unreachable_endpoints",
                           f"service {svc.id}: endpoint operator not trusted")

    model = IlpModel()
    meta = ReferenceNlMeta(allowed_nodes=allowed_nodes, shared=shared_vnf_per_slice)

    # --- placement variables (C1 groups) ------------------------------------
    def placement_sites(fid):
        slot = slc.vnf_catalog[fid]
        trusted = [v for v in sorted(slot.deploy_nodes) if v in allowed_nodes]
        if not trusted:
            return None, None
        demand = slot.vnf.demand
        fitting = [v for v in trusted
                   if all(amount <= state.node_residual(v, r) + _EPS
                          for r, amount in enumerate(demand) if amount)]
        return trusted, fitting

    seen_groups = set()
    for svc in slc.services:
        for pos, fid in enumerate(svc.vnf_sequence):
            key = _reference_placement_key(svc.id, pos, fid, shared_vnf_per_slice)
            if key in seen_groups:
                continue
            seen_groups.add(key)
            trusted, fitting = placement_sites(fid)
            if trusted is None:
                return Blocked("no_placement_nodes",
                               f"vnf {fid}: no trusted deployment node")
            if not fitting:
                return Blocked("infeasible",
                               f"vnf {fid}: no deployment node with residual capacity")
            group = {}
            demand = slc.vnf_catalog[fid].vnf.demand
            for v in fitting:
                cost = prices.placement_cost(net, v, demand)
                group[v] = model.add_variable(f"x_{key}_{v}", BINARY, obj=cost)
            meta.x_groups[key] = group
            model.add_constraint({var: 1.0 for var in group.values()}, "=", 1.0,
                                 name=f"C1_{key}")

    # --- routing variables --------------------------------------------------
    allowed_links = [eid for eid in sorted(net.links)
                     if net.links[eid].src in allowed_nodes
                     and net.links[eid].dst in allowed_nodes]
    for svc in slc.services:
        hops = len(svc.vnf_sequence) + 1
        for h in range(hops):
            for eid in allowed_links:
                if svc.bandwidth > state.link_residual(eid) + _EPS:
                    continue        # this service can never fit on the link
                cost = prices.link[eid] * svc.bandwidth
                meta.y_vars[(svc.id, h, eid)] = model.add_variable(
                    f"y_{svc.id}_{h}_{eid}", BINARY, obj=cost)

    # --- C2: flow conservation per (service, hop, node) ---------------------
    out_by_node = {v: [] for v in allowed_nodes}
    in_by_node = {v: [] for v in allowed_nodes}
    for eid in allowed_links:
        link = net.links[eid]
        out_by_node[link.src].append(eid)
        in_by_node[link.dst].append(eid)

    for svc in slc.services:
        m = len(svc.vnf_sequence)
        for h in range(m + 1):
            for v in sorted(allowed_nodes):
                coeffs: dict[int, float] = {}
                for eid in out_by_node[v]:
                    var = meta.y_vars.get((svc.id, h, eid))
                    if var is not None:
                        coeffs[var] = coeffs.get(var, 0.0) + 1.0
                for eid in in_by_node[v]:
                    var = meta.y_vars.get((svc.id, h, eid))
                    if var is not None:
                        coeffs[var] = coeffs.get(var, 0.0) - 1.0
                rhs = 0.0
                if h == 0:
                    if v == svc.source:
                        rhs += 1.0
                else:
                    fid = svc.vnf_sequence[h - 1]
                    key = _reference_placement_key(svc.id, h - 1, fid, shared_vnf_per_slice)
                    var = meta.x_groups[key].get(v)
                    if var is not None:
                        coeffs[var] = coeffs.get(var, 0.0) - 1.0
                if h == m:
                    if v == svc.sink:
                        rhs -= 1.0
                else:
                    fid = svc.vnf_sequence[h]
                    key = _reference_placement_key(svc.id, h, fid, shared_vnf_per_slice)
                    var = meta.x_groups[key].get(v)
                    if var is not None:
                        coeffs[var] = coeffs.get(var, 0.0) + 1.0
                coeffs = {k: c for k, c in coeffs.items() if c != 0.0}
                if coeffs or rhs != 0.0:
                    model.add_constraint(coeffs, "=", rhs,
                                         name=f"C2_{svc.id}_{h}_{v}")

    # --- C3: link capacity --------------------------------------------------
    for eid in allowed_links:
        coeffs = {}
        for svc in slc.services:
            for h in range(len(svc.vnf_sequence) + 1):
                var = meta.y_vars.get((svc.id, h, eid))
                if var is not None:
                    coeffs[var] = svc.bandwidth
        if coeffs:
            model.add_constraint(coeffs, "<=", max(0.0, state.link_residual(eid)),
                                 name=f"C3_{eid}")

    # --- C4: node resources -------------------------------------------------
    usage: dict[tuple[int, int], dict[int, float]] = {}
    for key, group in meta.x_groups.items():
        # key is the vnf id directly (shared) or (service_id, position)
        if shared_vnf_per_slice:
            demand = slc.vnf_catalog[key].vnf.demand
        else:
            svc = next(s for s in slc.services if s.id == key[0])
            demand = slc.vnf_catalog[svc.vnf_sequence[key[1]]].vnf.demand
        for v, var in group.items():
            for r, amount in enumerate(demand):
                if amount:
                    row = usage.setdefault((v, r), {})
                    row[var] = row.get(var, 0.0) + amount
    for (v, r) in sorted(usage):
        model.add_constraint(usage[(v, r)], "<=",
                             max(0.0, state.node_residual(v, r)),
                             name=f"C4_{v}_{r}")

    # --- C5: latency budget -------------------------------------------------
    for svc in slc.services:
        fixed = sum(slc.vnf_catalog[f].vnf.proc_delay for f in svc.vnf_sequence)
        coeffs = {}
        for h in range(len(svc.vnf_sequence) + 1):
            for eid in allowed_links:
                var = meta.y_vars.get((svc.id, h, eid))
                if var is not None:
                    coeffs[var] = net.links[eid].prop_delay
        model.add_constraint(coeffs, "<=", svc.max_latency - fixed,
                             name=f"C5_{svc.id}")

    return model, meta
