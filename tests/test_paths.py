"""k-shortest path search versus exhaustive enumeration, and candidate pruning."""
import functools
import math
import operator
import random

import networkx as nx
import pytest

from slicebed.expand import UnreachableEndpoints, build_expanded
from slicebed.model import (
    ResidualState,
    allowed_operators,
    load_request,
    load_scenario,
    request_from_dict,
    scenario_from_dict,
)
from slicebed.paths import (
    CandidatePath,
    candidate_from_path,
    generate_candidates,
    k_shortest_paths,
)
from slicebed.pricing import PriceSnapshot, PricingPolicy

from slicebed import paths
from oracles import (dfs_all_expanded_paths, edge_numbers, edge_view,
                     reference_k_shortest_paths, tiny_request, tiny_scenario)


def _search(exp, k):
    """k_shortest_paths with each edge-number path shown as its ExpEdge list."""
    edges = edge_view(exp).edges
    return [[edges[e] for e in p] for p in k_shortest_paths(exp, k)]


def _candidate(exp, req, path, index):
    """The candidate of edge-number ``path``, its footprint computed afresh."""
    return candidate_from_path(exp, req, path, index,
                               paths._footprint(exp, req, path))


def _cost(path):
    return sum(e.cost for e in path)


def _keyseq(path):
    return tuple((e.kind, e.ref) for e in path)


def _nodeseq(exp, path):
    nodes = [exp.node(exp.source_index)]
    nodes.extend(e.dst for e in path)
    return tuple(nodes)


def _instances(seed, count):
    """Yield (exp, all_paths) for random tiny expanded networks."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        scn = tiny_scenario(rng, max_nodes=5)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        try:
            allowed = allowed_operators(req, scn.trust)
        except Exception:
            continue
        snap = PriceSnapshot(PricingPolicy(), scn.net, ResidualState(scn.net))
        for svc in req.services:
            try:
                exp = build_expanded(scn.net, svc, req, allowed, snap)
            except UnreachableEndpoints:
                continue
            paths = dfs_all_expanded_paths(exp)
            if len(paths) > 1200:
                continue
            yield exp, paths, req, snap, scn
            made += 1
            if made >= count:
                return


def _integer_instances(seed, count, max_paths=300, draw=lambda rng: float(rng.randint(0, 2))):
    """Yield (exp, all_paths) for random layered graphs with small integer
    costs and latencies, so many paths tie exactly, and with parallel
    physical links, so equal node sequences differ only in link ids.
    ``draw`` picks each link's delay and price and each node's price."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(3, 5)

        def link(a, b):
            return {"endpoints": [a, b], "capacity": 5.0,
                    "directed": rng.random() < 0.3,
                    "prop_delay": draw(rng),
                    "unit_price": draw(rng)}

        links = [link(i, (i + 1) % n) for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            links.append(link(*rng.sample(range(n), 2)))
        links.append(link(*rng.choice(links)["endpoints"]))      # a parallel link
        scn = scenario_from_dict({
            "resources": [{"id": 0, "name": "cpu"}],
            "operators": [{"id": 1}],
            "nodes": [{"id": i, "operator_id": 1, "is_function_node": True,
                       "capacity": [9.0], "unit_price": [draw(rng)]}
                      for i in range(n)],
            "links": links,
            "trust": {"1": [1]},
            "vnfs": [{"id": 0, "name": "f0", "proc_delay": 1.0, "demand": [1.0]},
                     {"id": 1, "name": "f1", "proc_delay": 0.0, "demand": [1.0]}],
        })
        chain = [rng.choice([0, 1]) for _ in range(rng.randint(0, 2))]
        src, dst = rng.sample(range(n), 2)
        req = request_from_dict({
            "id": "r", "origin_operator": 1,
            "services": [{"id": 0, "source": src, "sink": dst,
                          "vnf_sequence": chain, "bandwidth": 1.0,
                          "max_latency": 100.0}],
            "vnf_catalog": [{"vnf_id": f, "agg_bandwidth": 1.0,
                             "deploy_nodes": sorted(rng.sample(range(n), rng.randint(1, n)))}
                            for f in sorted(set(chain))],
        }, scn)
        snap = PriceSnapshot(PricingPolicy(), scn.net, ResidualState(scn.net))
        exp = build_expanded(scn.net, req.services[0], req,
                             allowed_operators(req, scn.trust), snap)
        paths = dfs_all_expanded_paths(exp)
        if len(paths) <= max_paths:
            yield exp, paths
            made += 1


def _networkx_costs(exp):
    """Path costs in the order networkx's own Yen search yields them.

    Every layered edge is split at a midpoint node, so parallel edges stay
    distinct paths in networkx's simple digraph.
    """
    exp = edge_view(exp)
    g = nx.DiGraph()
    for out in exp.adjacency.values():
        for e in out:
            mid = ("edge", e.src, e.kind, e.ref)
            g.add_edge(e.src, mid, w=e.cost)
            g.add_edge(mid, e.dst, w=0)
    if exp.source not in g or exp.target not in g \
            or not nx.has_path(g, exp.source, exp.target):
        return []
    return [nx.path_weight(g, p, "w")
            for p in nx.shortest_simple_paths(g, exp.source, exp.target, weight="w")]


def _decimal(rng):
    return rng.choice((0.1, 0.2, 0.3))


def test_search_matches_reference_path_for_path():
    """The same ordered paths as the plain Yen search kept in the oracles,
    for k in {1, 2, 3, 8, all}, on graphs with float costs, on graphs with many exact ties and parallel links, and on graphs
    with costs of 0.1, 0.2 and 0.3, whose path sums depend on the order of
    addition. The bound that prunes spur searches must cut no tie at the
    k-th cost, so the instances must contain such ties."""
    graphs = [(exp, all_paths) for exp, all_paths, *_ in _instances(424242, 40)]
    graphs += list(_integer_instances(8675309, 60))
    graphs += list(_integer_instances(1618033, 60, draw=_decimal))
    kth_ties = inexact = 0
    for exp, all_paths in graphs:
        sums = sorted(_cost(p) for p in all_paths)
        kth_ties += sum(sums[k - 1] == sums[k] for k in (1, 2, 3, 8) if k < len(sums))
        inexact += any(functools.reduce(operator.add, (e.cost for e in p), 0.0)
                       != math.fsum(e.cost for e in p) for p in all_paths)
        for k in (1, 2, 3, 8, len(all_paths) + 1):
            assert _search(exp, k) == reference_k_shortest_paths(edge_view(exp), k)
    assert kth_ties > 100 and inexact > 30


def test_weights_match_networkx_on_integer_graphs():
    for exp, all_paths in _integer_instances(5551212, 40):
        got = [_cost(p) for p in _search(exp, len(all_paths) + 1)]
        assert got == _networkx_costs(exp)


def test_yen_matches_exhaustive_enumeration():
    """All paths, sorted weights, looplessness, dedup — against DFS."""
    seen = 0
    for exp, all_paths, *_ in _instances(20240817, 120):
        total = len(all_paths)
        found = _search(exp, total + 5)
        assert len(found) == total
        assert {_keyseq(p) for p in found} == {_keyseq(p) for p in all_paths}
        weights = [_cost(p) for p in found]
        # recomputing a sum in a different order can shift the last bit, so
        # allow dust when checking the nondecreasing ordering
        assert all(a <= b + 1e-9 for a, b in zip(weights, weights[1:]))
        for p in found:
            nodes = _nodeseq(exp, p)
            assert len(set(nodes)) == len(nodes), "loop in reported path"
        seen += 1
    assert seen == 120


def test_first_path_is_dijkstra_shortest():
    for exp, all_paths, *_ in _instances(99, 60):
        if not all_paths:
            assert k_shortest_paths(exp, 1) == []
            continue
        best = min(_cost(p) for p in all_paths)
        (sp,) = _search(exp, 1)
        assert _cost(sp) == pytest.approx(best)
        # among exactly-tied minimum paths, the node sequence is lexicographic
        tied = [p for p in all_paths if _cost(p) == _cost(sp)]
        if len(tied) >= 1:
            assert _nodeseq(exp, sp) <= min(_nodeseq(exp, p) for p in tied)


def test_prefix_property_and_determinism():
    """k' <= k gives exactly the first k' paths; reruns are identical."""
    for exp, all_paths, *_ in _instances(7, 40):
        total = len(all_paths)
        if total == 0:
            continue
        full = [_keyseq(p) for p in _search(exp, total)]
        for k in (1, 2, total // 2 or 1):
            sub = [_keyseq(p) for p in _search(exp, k)]
            assert sub == full[:min(k, total)]
        again = [_keyseq(p) for p in _search(exp, total)]
        assert again == full


def test_candidate_footprint_construction():
    for exp, all_paths, req, snap, scn in _instances(31337, 25):
        svc = exp.service
        for i, path in enumerate(all_paths[:20]):
            cand = _candidate(exp, req, edge_numbers(exp, path), i)
            assert isinstance(cand, CandidatePath)
            assert cand.service_id == svc.id
            # footprint bandwidth counts each traversal of a link
            per_link = {}
            for rt in cand.routes:
                for eid in rt:
                    per_link[eid] = per_link.get(eid, 0.0) + svc.bandwidth
            assert dict(cand.link_units) == per_link
            total_node = sum(a for _, _, a in cand.node_units)
            expected = sum(sum(req.vnf_catalog[f].vnf.demand)
                           for f in svc.vnf_sequence)
            assert total_node == pytest.approx(expected)


def _demo_setup():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    snap = PriceSnapshot(PricingPolicy(), scn.net, state)
    return scn, req, state, snap


def test_generate_candidates_sorted_and_indexed():
    scn, req, state, snap = _demo_setup()
    cands = generate_candidates(scn.net, scn.trust, state, req, 8, snap)
    assert set(cands) == {s.id for s in req.services}
    for svc in req.services:
        lst = cands[svc.id]
        assert lst, "demo services should have candidates"
        costs = [c.cost for c in lst]
        assert costs == sorted(costs)
        assert [c.index for c in lst] == list(range(len(lst)))
        assert all(c.latency <= svc.max_latency + 1e-9 for c in lst)


def test_generate_candidates_latency_filter():
    scn, req, state, snap = _demo_setup()
    loose = generate_candidates(scn.net, scn.trust, state, req, 16, snap)
    # shrink every latency bound below the cheapest feasible path's latency
    from slicebed.model import request_from_dict, request_to_dict
    doc = request_to_dict(req)
    for s in doc["services"]:
        s["max_latency"] = 0.05
    tight_req = request_from_dict(doc, scn)
    tight = generate_candidates(scn.net, scn.trust, state, tight_req, 16, snap)
    for sid in loose:
        assert len(tight[sid]) == 0 or \
            max(c.latency for c in tight[sid]) <= 0.05 + 1e-9
    assert any(len(tight[sid]) < len(loose[sid]) for sid in loose)


def test_generate_candidates_capacity_prefilter():
    scn, req, state, snap = _demo_setup()
    base = generate_candidates(scn.net, scn.trust, state, req, 32, snap)
    # consume almost all bandwidth on one link the candidates rely on
    used_links = {eid for lst in base.values() for c in lst
                  for eid, _ in c.link_units}
    eid = sorted(used_links)[0]
    state.used_bw[eid] = scn.net.links[eid].capacity - 0.5
    pruned = generate_candidates(scn.net, scn.trust, state, req, 32, snap)
    for sid, lst in pruned.items():
        for c in lst:
            assert all(e != eid or amt <= 0.5 + 1e-9 for e, amt in c.link_units)
    assert sum(map(len, pruned.values())) < sum(map(len, base.values()))


def test_generate_candidates_unreachable_service_gets_empty_list():
    scn, req, state, snap = _demo_setup()
    from slicebed.model import request_from_dict, request_to_dict
    doc = request_to_dict(req)
    doc["allow_operators"] = []      # origin 1 trusts {1,2}: sinks 5/6 (op 3)
    narrowed = request_from_dict(doc, scn)
    cands = generate_candidates(scn.net, scn.trust, state, narrowed, 8, snap)
    assert all(lst == [] for lst in cands.values())


def test_generate_candidates_untrustable_raises():
    scn, req, state, snap = _demo_setup()
    from slicebed.model import request_from_dict, request_to_dict
    from slicebed.model import UntrustableRequest
    doc = request_to_dict(req)
    doc["deny_operators"] = [doc["origin_operator"]]
    doc["allow_operators"] = []
    bad = request_from_dict(doc, scn)
    with pytest.raises(UntrustableRequest):
        generate_candidates(scn.net, scn.trust, state, bad, 8, snap)


def test_generate_candidates_calls_the_seams_through_the_module(monkeypatch):
    """A per-layer profiler times candidate generation by replacing
    ``build_expanded``, ``k_shortest_paths`` and ``candidate_from_path`` on
    the ``paths`` module, and reads the graph's shape from build_expanded's
    five positional arguments (net, service, slc, allowed, prices) and its
    result's ``num_edges``. generate_candidates must keep calling them that
    way."""
    scn, req, state, snap = _demo_setup()
    calls = {"build_expanded": [], "k_shortest_paths": [], "candidate_from_path": []}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(paths, name), **kwargs):
            result = _original(*args, **kwargs)
            calls[_name].append((args, kwargs, result))
            return result
        monkeypatch.setattr(paths, name, counting)
    cands = generate_candidates(scn.net, scn.trust, state, req, 8, snap)
    assert len(calls["build_expanded"]) == len(req.services)
    for args, kwargs, result in calls["build_expanded"]:
        assert len(args) == 5 and not kwargs
        net, service, slc, allowed, prices = args
        assert (net, slc, prices) == (scn.net, req, snap)
        assert service in req.services and isinstance(allowed, frozenset)
        assert result.num_edges > 0
    assert len(calls["k_shortest_paths"]) == len(req.services)
    assert len(calls["candidate_from_path"]) == sum(map(len, cands.values())) > 0


def test_prefilter_keeps_what_building_every_candidate_would():
    """Checking latency and standalone fit from edge numbers keeps exactly
    the candidates, with the same indices, that building each path's
    candidate and then checking it keeps."""
    rng = random.Random(27182818)
    compared = dropped = 0
    while compared < 80:
        scn = tiny_scenario(rng, max_nodes=5)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        try:
            allowed = allowed_operators(req, scn.trust)
        except Exception:
            continue
        state = ResidualState(scn.net)
        for eid, link in scn.net.links.items():
            state.used_bw[eid] = link.capacity * rng.choice([0.0, 0.0, 0.5, 1.0])
        for vid, node in scn.net.nodes.items():
            state.used_node[(vid, 0)] = node.capacity[0] * rng.choice([0.0, 0.5, 1.0])
        snap = PriceSnapshot(PricingPolicy(), scn.net, state)
        got = generate_candidates(scn.net, scn.trust, state, req, 8, snap)
        for svc in req.services:
            try:
                exp = build_expanded(scn.net, svc, req, allowed, snap)
            except UnreachableEndpoints:
                assert got[svc.id] == []
                continue
            kept = []
            for path in k_shortest_paths(exp, 8):
                cand = _candidate(exp, req, path, len(kept))
                fits = (all(a <= state.link_residual(e) + 1e-9 for e, a in cand.link_units)
                        and all(a <= state.node_residual(v, r) + 1e-9
                                for v, r, a in cand.node_units))
                if cand.latency <= svc.max_latency + 1e-9 and fits:
                    kept.append(cand)
                else:
                    dropped += 1
            assert got[svc.id] == kept
            compared += 1
    assert dropped > 50
