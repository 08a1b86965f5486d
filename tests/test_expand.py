"""Layered-network construction: structure, trust filtering, decode round trip."""
import random

import pytest

from slicebed.expand import UnreachableEndpoints, build_expanded, map_back, to_dot
from slicebed.model import (
    ResidualState,
    ServiceChain,
    allowed_operators,
    load_request,
    load_scenario,
    scenario_from_dict,
    request_from_dict,
)
from slicebed.pricing import KLEINROCK, PriceSnapshot, PricingPolicy

from oracles import (dfs_all_expanded_paths, edge_numbers, edge_view,
                     reference_build_expanded, tiny_request, tiny_scenario)


@pytest.fixture(scope="module")
def demo():
    return load_scenario("scenarios/demo_3op.json")


@pytest.fixture(scope="module")
def demo_req(demo):
    return load_request("scenarios/demo_request.json", demo)


def _snap(scn):
    return PriceSnapshot(PricingPolicy(), scn.net, ResidualState(scn.net))


def _line_scenario():
    """0 -- 1 -- 2, all one operator, every node a function node."""
    return scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [{"id": i, "operator_id": 1, "is_function_node": True,
                   "capacity": [10.0], "unit_price": [1.0]} for i in range(3)],
        "links": [
            {"endpoints": [0, 1], "capacity": 10.0, "prop_delay": 1.0,
             "unit_price": 2.0},
            {"endpoints": [1, 2], "capacity": 10.0, "prop_delay": 1.0,
             "unit_price": 2.0},
        ],
        "trust": {"1": [1]},
        "vnfs": [{"id": 0, "name": "a", "proc_delay": 0.5, "demand": [1.0]},
                 {"id": 1, "name": "b", "proc_delay": 0.25, "demand": [2.0]}],
    })


def _line_request(scn, chain, deploy, max_latency=50.0):
    catalog = [{"vnf_id": f, "agg_bandwidth": 1.0, "deploy_nodes": deploy[f]}
               for f in sorted(set(chain))]
    return request_from_dict({
        "id": "line", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 2, "vnf_sequence": chain,
                      "bandwidth": 1.0, "max_latency": max_latency}],
        "vnf_catalog": catalog,
    }, scn)


def test_empty_chain_is_identity_copy():
    scn = _line_scenario()
    req = _line_request(scn, [], {})
    exp = build_expanded(scn.net, req.services[0], req,
                         frozenset({1}), _snap(scn))
    # one layer, nodes mirror the substrate, edges are exactly the link copies
    assert exp.num_layers == 1
    assert exp.num_nodes == 3
    assert exp.num_edges == len(scn.net.links)
    assert exp.node(exp.source_index) == (0, 0)
    assert exp.node(exp.target_index) == (0, 2)


def test_layer_counts_for_chain_of_two():
    scn = _line_scenario()
    req = _line_request(scn, [0, 1], {0: [0, 1, 2], 1: [1]})
    exp = build_expanded(scn.net, req.services[0], req,
                         frozenset({1}), _snap(scn))
    assert exp.num_layers == 3
    assert exp.num_nodes == 9
    # 4 directed link copies per layer x 3 layers, 3 vnf edges for f0, 1 for f1
    assert exp.num_edges == 12 + 3 + 1
    vnf_edges = [e for e in edge_view(exp).edges if e.kind == "vnf"]
    # processing edges keep the node and advance exactly one layer
    for e in vnf_edges:
        assert e.dst == (e.src[0] + 1, e.src[1])


def test_edge_costs_and_latencies(demo, demo_req):
    snap = _snap(demo)
    allowed = allowed_operators(demo_req, demo.trust)
    svc = demo_req.services[0]
    exp = build_expanded(demo.net, svc, demo_req, allowed, snap)
    for e in edge_view(exp).edges:
        if e.kind == "link":
            link = demo.net.links[e.ref]
            assert e.cost == pytest.approx(snap.link[e.ref] * svc.bandwidth)
            assert e.latency == link.prop_delay
        else:
            fid = svc.vnf_sequence[e.ref]
            vnf = demo_req.vnf_catalog[fid]
            assert e.cost == pytest.approx(
                snap.placement_cost(demo.net, e.src[1], vnf.vnf.demand))
            assert e.latency == vnf.vnf.proc_delay


def test_trust_filtering_is_structural(demo, demo_req):
    snap = _snap(demo)
    svc = demo_req.services[0]
    full = build_expanded(demo.net, svc, demo_req,
                          frozenset({1, 2, 3}), snap)
    # operator 2 owns nodes 3 and 4; excluding it removes them from every layer
    filtered = build_expanded(demo.net, svc, demo_req,
                              frozenset({1, 3}), snap)
    banned = {v for v, n in demo.net.nodes.items() if n.operator_id == 2}
    view = edge_view(filtered)
    assert all(node[1] not in banned for node in view.adjacency)
    assert all(e.dst[1] not in banned for e in view.edges)
    assert filtered.num_nodes < full.num_nodes


def test_endpoint_outside_trust_raises(demo, demo_req):
    svc = demo_req.services[0]   # source 1 (operator 1), sink 5 (operator 3)
    with pytest.raises(UnreachableEndpoints):
        build_expanded(demo.net, svc, demo_req, frozenset({1, 2}), _snap(demo))


def test_allowed_may_be_any_set_of_operators(demo, demo_req):
    """A plain set, a list or a frozenset of the same operators give the same
    graph from one shared trust-filtered substrate."""
    snap = _snap(demo)
    svc = demo_req.services[0]
    frozen = build_expanded(demo.net, svc, demo_req, frozenset({1, 3}), snap)
    for allowed in ({1, 3}, [3, 1]):
        exp = build_expanded(demo.net, svc, demo_req, allowed, snap)
        assert edge_view(exp).adjacency == edge_view(frozen).adjacency
    assert demo.net.trusted_substrate({3, 1}) is \
        demo.net.trusted_substrate(frozenset({1, 3}))


def test_empty_deployment_layer_has_no_through_path():
    scn = _line_scenario()
    # deploy f0 only at node 1, then disallow... instead: deploy set {1} but
    # chain needs f1 too and f1 deploys nowhere reachable -> no vnf edge
    req = _line_request(scn, [0], {0: [1]})
    exp = build_expanded(scn.net, req.services[0], req,
                         frozenset({1}), _snap(scn))
    paths = dfs_all_expanded_paths(exp)
    assert paths  # sanity: through node 1 exists
    # now restrict the deployment set to a node this service never reaches:
    # rebuild with a catalog placing f0 nowhere in the allowed set is already
    # rejected at request validation, so emulate by filtering node 1 out via
    # a single-node deploy set unreachable between source and sink
    req2 = _line_request(scn, [0], {0: [0]})
    exp2 = build_expanded(scn.net, req2.services[0], req2,
                          frozenset({1}), _snap(scn))
    # f0 must sit at node 0: every path uses the (0,0)->(1,0) vnf edge
    for path in dfs_all_expanded_paths(exp2):
        kinds = [(e.kind, e.src) for e in path if e.kind == "vnf"]
        assert kinds == [("vnf", (0, 0))]


def test_map_back_round_trip():
    scn = _line_scenario()
    req = _line_request(scn, [0, 1], {0: [0, 1, 2], 1: [1]})
    exp = build_expanded(scn.net, req.services[0], req,
                         frozenset({1}), _snap(scn))
    for path in dfs_all_expanded_paths(exp):
        placement, routes, cost, latency = map_back(exp, edge_numbers(exp, path))
        # placement covers both chain positions, routes cover m+1 hops
        assert sorted(placement) == [0, 1]
        assert placement[1] == 1
        assert len(routes) == 3
        # decoded quantities equal the sums along the expanded path
        assert cost == pytest.approx(sum(e.cost for e in path))
        assert latency == pytest.approx(sum(e.latency for e in path))
        # physical walk is contiguous through anchors
        anchors = [0, placement[0], placement[1], 2]
        for h, route in enumerate(routes):
            at = anchors[h]
            for eid in route:
                assert scn.net.links[eid].src == at
                at = scn.net.links[eid].dst
            assert at == anchors[h + 1]


def test_same_node_hosts_consecutive_vnfs():
    """Chain [0, 1] can collapse onto one node with empty middle route."""
    scn = _line_scenario()
    req = _line_request(scn, [0, 1], {0: [1], 1: [1]})
    exp = build_expanded(scn.net, req.services[0], req,
                         frozenset({1}), _snap(scn))
    hits = []
    for path in dfs_all_expanded_paths(exp):
        placement, routes, _, _ = map_back(exp, edge_numbers(exp, path))
        if placement == {0: 1, 1: 1}:
            hits.append(routes)
    assert hits
    assert any(routes[1] == () for routes in hits)


def test_random_expanded_paths_decode_consistently():
    rng = random.Random(424242)
    checked = 0
    for _ in range(60):
        scn = tiny_scenario(rng)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        try:
            allowed = allowed_operators(req, scn.trust)
        except Exception:
            continue
        snap = _snap(scn)
        for svc in req.services:
            try:
                exp = build_expanded(scn.net, svc, req, allowed, snap)
            except UnreachableEndpoints:
                continue
            paths = dfs_all_expanded_paths(exp)
            for path in paths[:50]:
                placement, routes, cost, latency = map_back(exp, edge_numbers(exp, path))
                assert sorted(placement) == list(range(len(svc.vnf_sequence)))
                assert len(routes) == len(svc.vnf_sequence) + 1
                # recompute cost/latency from physical data
                c = sum(snap.link[eid] * svc.bandwidth
                        for rt in routes for eid in rt)
                l = sum(scn.net.links[eid].prop_delay
                        for rt in routes for eid in rt)
                for pos, vid in placement.items():
                    entry = req.vnf_catalog[svc.vnf_sequence[pos]]
                    c += snap.placement_cost(scn.net, vid, entry.vnf.demand)
                    l += entry.vnf.proc_delay
                assert cost == pytest.approx(c)
                assert latency == pytest.approx(l)
                checked += 1
    assert checked > 200


def test_demo_expansion_size(demo, demo_req):
    """Frozen sizes for the shipped demo: 3 layers x 7 nodes, 48 link copies
    + 6 processing edges."""
    allowed = allowed_operators(demo_req, demo.trust)
    exp = build_expanded(demo.net, demo_req.services[0], demo_req,
                         allowed, _snap(demo))
    assert exp.num_nodes == 21
    assert exp.num_edges == 54


def _view_dot(exp):
    """DOT text of ``exp`` rendered from its ExpEdge view, node by node."""
    view = edge_view(exp)
    lines = ["digraph expanded {", "  rankdir=LR;"]
    for layer, vid in sorted(view.adjacency):
        shape = "doublecircle" if (layer, vid) in (view.source, view.target) else "circle"
        lines.append(f'  l{layer}_n{vid} [label="{vid}@{layer}", shape={shape}];')
    for node in sorted(view.adjacency):
        for e in view.adjacency[node]:
            style = "dashed" if e.kind == "vnf" else "solid"
            lines.append(f'  l{e.src[0]}_n{e.src[1]} -> l{e.dst[0]}_n{e.dst[1]} '
                         f'[label="c={e.cost:g} t={e.latency:g}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_to_dot_mentions_every_edge(demo, demo_req):
    """Every edge is one DOT line, and the text read off the integer arrays
    equals the one rendered from the (layer, node id) edge view, on the demo
    and on graphs with parallel links and several layers."""
    cases = [(demo, demo_req, _snap(demo))]
    rng = random.Random(77)
    cases += [_parallel_link_instance(rng) for _ in range(40)]
    dumped = 0
    for scn, req, snap in cases:
        allowed = allowed_operators(req, scn.trust)
        for svc in req.services:
            try:
                exp = build_expanded(scn.net, svc, req, allowed, snap)
            except UnreachableEndpoints:
                continue
            dot = to_dot(exp)
            assert dot.startswith("digraph")
            assert dot.count("->") == exp.num_edges
            assert dot == _view_dot(exp)
            dumped += 1
    assert dumped > 30


def _parallel_link_instance(rng):
    """Random scenario and request with parallel links, one to three
    operators, congestion prices, and chains drawn from two VNFs whose
    deployment sets overlap, so one node can host consecutive positions."""
    n = rng.randint(3, 6)
    ops = rng.randint(1, 3)

    def link(a, b):
        return {"endpoints": [a, b], "capacity": 8.0,
                "directed": rng.random() < 0.3,
                "prop_delay": round(rng.uniform(0.1, 2.0), 2),
                "unit_price": rng.choice([0.1, 0.2, 0.3, 1.0, 1.7])}

    links = [link(i, (i + 1) % n) for i in range(n)]
    for _ in range(rng.randint(1, 4)):
        links.append(link(*rng.sample(range(n), 2)))
    for _ in range(rng.randint(1, 2)):
        links.append(link(*rng.choice(links)["endpoints"]))     # parallel link
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}, {"id": 1, "name": "mem"}],
        "operators": [{"id": i} for i in range(1, ops + 1)],
        "nodes": [{"id": i, "operator_id": rng.randint(1, ops),
                   "is_function_node": True, "capacity": [9.0, 9.0],
                   "unit_price": [round(rng.uniform(0.1, 2.0), 2), 0.3]}
                  for i in range(n)],
        "links": links,
        "trust": {str(i): sorted({i} | {j for j in range(1, ops + 1)
                                        if rng.random() < 0.6})
                  for i in range(1, ops + 1)},
        "vnfs": [{"id": 0, "name": "f0", "proc_delay": 0.3, "demand": [1.0, 0.0]},
                 {"id": 1, "name": "f1", "proc_delay": 0.1, "demand": [2.0, 1.0]}],
    })
    services = []
    for sid in range(rng.randint(1, 2)):
        src, dst = rng.sample(range(n), 2)
        services.append({"id": sid, "source": src, "sink": dst,
                         "vnf_sequence": [rng.choice([0, 1])
                                          for _ in range(rng.randint(0, 3))],
                         "bandwidth": float(rng.randint(1, 3)), "max_latency": 50.0})
    fids = sorted({f for s in services for f in s["vnf_sequence"]})
    req = request_from_dict({
        "id": "r", "origin_operator": rng.randint(1, ops), "services": services,
        "vnf_catalog": [{"vnf_id": f, "agg_bandwidth": sum(
                             s["bandwidth"] for s in services if f in s["vnf_sequence"]),
                         "deploy_nodes": sorted(rng.sample(range(n), rng.randint(1, n)))}
                        for f in fids],
    }, scn)
    state = ResidualState(scn.net)
    for eid, l in scn.net.links.items():
        state.used_bw[eid] = rng.choice([0.0, 0.0, 1.0, 3.0, 5.5]) * l.capacity / 8.0
    return scn, req, PriceSnapshot(PricingPolicy(KLEINROCK), scn.net, state)


def test_graph_matches_reference_build_edge_for_edge(demo, demo_req):
    """The integer graph's edge view equals the plain ExpEdge build kept in the
    oracles: same nodes, and per node the same edges in the same order with
    the same endpoints, cost, latency, kind and ref."""
    cases = [(demo, demo_req, _snap(demo))]
    rng = random.Random(20261020)
    cases += [_parallel_link_instance(rng) for _ in range(150)]
    built = consecutive = 0
    for scn, req, snap in cases:
        allowed = allowed_operators(req, scn.trust)
        for svc in req.services:
            try:
                ref = reference_build_expanded(scn.net, svc, req, allowed, snap)
            except UnreachableEndpoints:
                with pytest.raises(UnreachableEndpoints):
                    build_expanded(scn.net, svc, req, allowed, snap)
                continue
            exp = build_expanded(scn.net, svc, req, allowed, snap)
            view = edge_view(exp)
            assert (view.source, view.target) == (ref.source, ref.target)
            assert (exp.num_layers, exp.num_nodes, exp.num_edges) == \
                (ref.num_layers, ref.num_nodes, ref.num_edges)
            assert list(view.adjacency) == sorted(ref.adjacency)
            for node in sorted(ref.adjacency):
                assert view.adjacency[node] == ref.adjacency[node]
            # edges are numbered in adjacency order, and the per-edge lists
            # agree with the adjacency tuples
            assert [e for out in exp.arcs for _, _, e in out] == list(range(exp.num_edges))
            for i, out in enumerate(exp.arcs):
                for dst, cost, e in out:
                    assert (exp.edge_dst[e], exp.edge_cost[e]) == (dst, cost)
                    assert view.edges[e].src == exp.node(i)
            built += 1
            chain = svc.vnf_sequence
            consecutive += any(
                set(req.vnf_catalog[a].deploy_nodes) & set(req.vnf_catalog[b].deploy_nodes)
                for a, b in zip(chain, chain[1:]))
    assert built > 150 and consecutive > 30
