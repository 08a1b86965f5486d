"""Exact per-request embedding versus exhaustive enumeration."""
import random

import pytest

from slicebed import embed_nl, sim
from slicebed.embed_nl import build_nl, solve_nl, solve_nl_detailed
from slicebed.milp import IlpModel
from slicebed.model import (
    Blocked,
    Embedding,
    ResidualState,
    UntrustableRequest,
    check_embedding,
    load_request,
    load_scenario,
    request_from_dict,
    request_to_dict,
    scenario_from_dict,
)
from slicebed.pricing import KLEINROCK, PriceSnapshot, PricingPolicy

from oracles import (
    brute_force_embedding,
    enumerate_oracle,
    reference_build_nl,
    tiny_request,
    tiny_scenario,
)


def _snap(scn, state=None, policy=None):
    return PriceSnapshot(policy or PricingPolicy(), scn.net,
                         state or ResidualState(scn.net))


def _two_node_scenario():
    return scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [
            {"id": 0, "operator_id": 1, "is_function_node": True,
             "capacity": [4.0], "unit_price": [1.5]},
            {"id": 1, "operator_id": 1, "is_function_node": True,
             "capacity": [4.0], "unit_price": [0.5]},
        ],
        "links": [
            {"endpoints": [0, 1], "capacity": 3.0, "prop_delay": 1.0,
             "unit_price": 1.0},
            {"endpoints": [0, 1], "capacity": 3.0, "prop_delay": 2.0,
             "unit_price": 0.25},
        ],
        "trust": {"1": [1]},
        "vnfs": [{"id": 0, "name": "f", "proc_delay": 0.5, "demand": [2.0]}],
    })


def _req(scn, doc):
    return request_from_dict(doc, scn)


def test_empty_chain_picks_cheapest_route():
    scn = _two_node_scenario()
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
                      "bandwidth": 2.0, "max_latency": 10.0}],
        "vnf_catalog": [],
    })
    state = ResidualState(scn.net)
    emb = solve_nl(scn.net, scn.trust, state, req, _snap(scn))
    assert isinstance(emb, Embedding)
    # parallel links 0->1: price 1.0/delay 1 vs price 0.25/delay 2
    assert emb.total_cost == pytest.approx(0.25 * 2.0)
    assert emb.services[0].latency == pytest.approx(2.0)


def test_latency_bound_forces_expensive_route():
    scn = _two_node_scenario()
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
                      "bandwidth": 2.0, "max_latency": 1.5}],
        "vnf_catalog": [],
    })
    emb = solve_nl(scn.net, scn.trust, ResidualState(scn.net), req, _snap(scn))
    assert emb.total_cost == pytest.approx(1.0 * 2.0)
    assert emb.services[0].latency == pytest.approx(1.0)


def test_placement_prefers_cheap_node():
    scn = _two_node_scenario()
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 1, "vnf_sequence": [0],
                      "bandwidth": 1.0, "max_latency": 10.0}],
        "vnf_catalog": [{"vnf_id": 0, "agg_bandwidth": 1.0,
                         "deploy_nodes": [0, 1]}],
    })
    emb = solve_nl(scn.net, scn.trust, ResidualState(scn.net), req, _snap(scn))
    # node 1 charges 0.5/unit vs node 0 at 1.5/unit: place at 1, ride link 0.25
    assert emb.services[0].placement == {0: 1}
    assert emb.total_cost == pytest.approx(0.25 * 1.0 + 0.5 * 2.0)


def test_infeasible_latency_blocks():
    scn = _two_node_scenario()
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
                      "bandwidth": 2.0, "max_latency": 0.5}],
        "vnf_catalog": [],
    })
    out = solve_nl(scn.net, scn.trust, ResidualState(scn.net), req, _snap(scn))
    assert isinstance(out, Blocked)
    assert out.reason == "infeasible"


def test_saturated_links_block():
    scn = _two_node_scenario()
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
                      "bandwidth": 2.0, "max_latency": 10.0}],
        "vnf_catalog": [],
    })
    state = ResidualState(scn.net)
    for eid in scn.net.links:
        state.used_bw[eid] = scn.net.links[eid].capacity - 1.0  # residual 1 < 2
    out = solve_nl(scn.net, scn.trust, state, req, _snap(scn, state))
    assert isinstance(out, Blocked) and out.reason == "infeasible"


def test_trust_blocking_reasons():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    doc = request_to_dict(req)

    # origin denied entirely
    bad = dict(doc, deny_operators=[doc["origin_operator"]], allow_operators=[])
    out = solve_nl(scn.net, scn.trust, ResidualState(scn.net),
                   request_from_dict(bad, scn), _snap(scn))
    assert isinstance(out, Blocked) and out.reason == "untrustable_request"

    # sink's operator excluded -> endpoints unreachable
    narrowed = dict(doc, allow_operators=[])
    out = solve_nl(scn.net, scn.trust, ResidualState(scn.net),
                   request_from_dict(narrowed, scn), _snap(scn))
    assert isinstance(out, Blocked) and out.reason == "unreachable_endpoints"


def test_empty_deploy_set_after_trust_blocks():
    """All deployment nodes of a needed vnf fall outside the allowed set."""
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    doc = request_to_dict(req)
    # vnf 1 deploys at 3 (op 2), 5 and 6 (op 3); denying op 2 and 3 would cut
    # the sink too, so deploy vnf 0 only at node 3 and deny operator 2 instead
    for entry in doc["vnf_catalog"]:
        if entry["vnf_id"] == 0:
            entry["deploy_nodes"] = [3]
    doc["deny_operators"] = [2]
    doc["allow_operators"] = [3]
    out = solve_nl(scn.net, scn.trust, ResidualState(scn.net),
                   request_from_dict(doc, scn), _snap(scn))
    assert isinstance(out, Blocked) and out.reason == "no_placement_nodes"


def test_matches_brute_force_on_random_instances():
    rng = random.Random(60616)
    optimal = blocked = 0
    while optimal < 60 or blocked < 15:
        scn = tiny_scenario(rng)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        ref = brute_force_embedding(scn, req, snap, state)
        got = solve_nl(scn.net, scn.trust, state, req, snap)
        if ref is None:
            assert isinstance(got, Blocked), \
                f"oracle blocked, solver found cost {getattr(got, 'total_cost', None)}"
            blocked += 1
        else:
            assert isinstance(got, Embedding), f"oracle found {ref}, solver blocked: {got}"
            assert got.total_cost == pytest.approx(ref, abs=1e-6)
            assert check_embedding(scn.net, scn.trust, state, req, got) == []
            optimal += 1


def test_small_models_match_binary_enumeration():
    """ILP solve agrees with brute-force enumeration of the same model."""
    rng = random.Random(1812)
    checked = 0
    for _ in range(120):
        scn = tiny_scenario(rng)
        req = tiny_request(rng, scn, max_chain=1)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        built = build_nl(scn.net, scn.trust, state, req, snap)
        if isinstance(built, Blocked):
            continue
        model, _ = built
        if model.num_binaries > 20:
            continue
        from slicebed.milp import branch_and_bound
        ref = enumerate_oracle(model)
        got = branch_and_bound(model)
        assert got.status == ref.status
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.objective, abs=1e-6)
        checked += 1
    assert checked >= 40


def test_solution_respects_residual_capacity():
    """Repeatedly admit the same request until blocked; checker agrees throughout."""
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    admitted = 0
    while True:
        snap = _snap(scn, state)
        out = solve_nl(scn.net, scn.trust, state, req, snap)
        if isinstance(out, Blocked):
            assert out.reason == "infeasible"
            break
        assert check_embedding(scn.net, scn.trust, state, req, out) == []
        emb = Embedding(slice_id=f"s{admitted}", services=out.services,
                        total_cost=out.total_cost)
        state.reserve(req, emb)
        admitted += 1
        assert admitted < 50
    assert admitted >= 1


def test_kleinrock_snapshot_changes_choice():
    """Under load-dependent prices, a loaded cheap link loses to a clean one."""
    scn = _two_node_scenario()
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [{"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
                      "bandwidth": 1.0, "max_latency": 10.0}],
        "vnf_catalog": [],
    })
    cheap = [e for e, l in scn.net.links.items()
             if l.src == 0 and l.unit_price == 0.25][0]
    state = ResidualState(scn.net)
    state.used_bw[cheap] = 2.9   # 96.7% utilization
    snap = _snap(scn, state, PricingPolicy(mode=KLEINROCK, cap=100.0))
    emb = solve_nl(scn.net, scn.trust, state, req, snap)
    # cheap link now prices at 0.25 * 30x ~ 7.5; the 1.0 link wins
    assert emb.services[0].routes[0] != (cheap,)
    assert emb.total_cost == pytest.approx(1.0)


def test_shared_vnf_accounting_charges_once():
    """Two services with the same vnf at one node: shared mode halves the
    node-side cost and capacity draw."""
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [
            {"id": 0, "operator_id": 1, "is_function_node": False,
             "capacity": [0.0], "unit_price": [0.0]},
            {"id": 1, "operator_id": 1, "is_function_node": True,
             "capacity": [2.0], "unit_price": [10.0]},
            {"id": 2, "operator_id": 1, "is_function_node": False,
             "capacity": [0.0], "unit_price": [0.0]},
        ],
        "links": [
            {"endpoints": [0, 1], "capacity": 10.0, "prop_delay": 0.1,
             "unit_price": 0.1},
            {"endpoints": [1, 2], "capacity": 10.0, "prop_delay": 0.1,
             "unit_price": 0.1},
        ],
        "trust": {"1": [1]},
        "vnfs": [{"id": 0, "name": "f", "proc_delay": 0.0, "demand": [2.0]}],
    })
    req = _req(scn, {
        "id": "r", "origin_operator": 1,
        "services": [
            {"id": 0, "source": 0, "sink": 2, "vnf_sequence": [0],
             "bandwidth": 1.0, "max_latency": 5.0},
            {"id": 1, "source": 2, "sink": 0, "vnf_sequence": [0],
             "bandwidth": 1.0, "max_latency": 5.0},
        ],
        "vnf_catalog": [{"vnf_id": 0, "agg_bandwidth": 2.0,
                         "deploy_nodes": [1]}],
    })
    state = ResidualState(scn.net)
    snap = _snap(scn, state)

    # per-occurrence accounting: 2 placements x demand 2 > capacity 2 -> blocked
    out = solve_nl(scn.net, scn.trust, state, req, snap)
    assert isinstance(out, Blocked)

    shared = solve_nl(scn.net, scn.trust, state, req, snap,
                      shared_vnf_per_slice=True)
    assert isinstance(shared, Embedding)
    # node cost charged once: 2 units x 10; four link traversals x 0.1
    assert shared.total_cost == pytest.approx(20.0 + 0.4)
    assert check_embedding(scn.net, scn.trust, state, req, shared,
                           shared_vnf_per_slice=True) == []
    state.reserve(req, shared, shared_vnf_per_slice=True)
    assert state.node_used(1, 0) == pytest.approx(2.0)


def test_time_limit_reports_honestly():
    """The optimality flag always mirrors the raw solver status.

    A zero time budget can still yield a proven optimum when the root
    relaxation is already integral, so all three outcomes are legitimate;
    what must hold is that none of them misrepresents the solver state.
    """
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    out, sol = solve_nl_detailed(scn.net, scn.trust, state, req, _snap(scn),
                                 time_limit_ms=0.0)
    if isinstance(out, Embedding):
        assert out.optimal == (sol.status == "optimal")
        if not out.optimal:
            assert sol.status == "time_limit_best_incumbent"
    else:
        assert out.reason == "time_limit_no_incumbent"
        assert sol.status == "time_limit_best_incumbent" and sol.assignment is None


def test_detailed_returns_solution_stats():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    out, sol = solve_nl_detailed(scn.net, scn.trust, ResidualState(scn.net),
                                 req, _snap(scn))
    assert isinstance(out, Embedding) and out.optimal
    assert sol.status == "optimal" and sol.node_count >= 1
    assert out.total_cost == pytest.approx(12.6)


def _random_nl_instance(rng):
    """Random scenario, request, loaded ledger and prices for one model build.

    Parallel links, one to three operators with random trust, one to three
    services whose chains repeat two VNFs (so one VNF can sit at consecutive
    positions), deployment sets that may miss every trusted node, node loads
    that may leave no node room, and static or congestion prices."""
    n = rng.randint(3, 6)
    ops = rng.randint(1, 3)
    owner = [rng.randint(1, ops) for _ in range(n)]

    def link(a, b):
        return {"endpoints": [a, b], "capacity": 8.0,
                "directed": rng.random() < 0.3,
                "prop_delay": round(rng.uniform(0.1, 2.0), 2),
                "unit_price": rng.choice([0.1, 0.2, 0.3, 1.0, 1.7])}

    def deploy_nodes():
        op = rng.randint(1, ops)      # often all in one operator
        pool = [v for v in range(n) if owner[v] == op] or list(range(n))
        return rng.sample(pool, min(len(pool), rng.randint(1, 2)))

    links = [link(i, (i + 1) % n) for i in range(n)]
    for _ in range(rng.randint(1, 4)):
        links.append(link(*rng.sample(range(n), 2)))
    for _ in range(rng.randint(1, 2)):
        links.append(link(*rng.choice(links)["endpoints"]))     # parallel link
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}, {"id": 1, "name": "mem"}],
        "operators": [{"id": i} for i in range(1, ops + 1)],
        "nodes": [{"id": i, "operator_id": owner[i],
                   "is_function_node": True, "capacity": [9.0, 9.0],
                   "unit_price": [round(rng.uniform(0.1, 2.0), 2), 0.3]}
                  for i in range(n)],
        "links": links,
        "trust": {str(i): sorted({i} | {j for j in range(1, ops + 1)
                                        if rng.random() < 0.5})
                  for i in range(1, ops + 1)},
        "vnfs": [{"id": 0, "name": "f0", "proc_delay": 0.3, "demand": [1.0, 0.0]},
                 {"id": 1, "name": "f1", "proc_delay": 0.1, "demand": [2.0, 1.0]}],
    })
    services = []
    for sid in range(rng.randint(1, 3)):
        src, dst = rng.sample(range(n), 2)
        services.append({"id": sid, "source": src, "sink": dst,
                         "vnf_sequence": [rng.choice([0, 1])
                                          for _ in range(rng.randint(0, 3))],
                         "bandwidth": float(rng.randint(1, 3)),
                         "max_latency": rng.choice([4.0, 50.0])})
    fids = sorted({f for s in services for f in s["vnf_sequence"]})
    req = request_from_dict({
        "id": "r", "origin_operator": rng.randint(1, ops), "services": services,
        "deny_operators": [op for op in range(2, ops + 1) if rng.random() < 0.1],
        "vnf_catalog": [{"vnf_id": f, "agg_bandwidth": sum(
                             s["bandwidth"] for s in services if f in s["vnf_sequence"]),
                         "deploy_nodes": deploy_nodes()}
                        for f in fids],
    }, scn)
    state = ResidualState(scn.net)
    for eid, l in scn.net.links.items():
        state.used_bw[eid] = rng.choice(
            [0.0, 0.0, 1.0, 3.0, 5.5, 6.0, 6.0 + 1e-10, 7.5]) * l.capacity / 8.0
    # a residual may equal a demand or a bandwidth, or fall short of it by
    # less than the fit tolerance
    for v in scn.net.nodes:
        state.used_node[(v, 0)] = rng.choice([0.0, 0.0, 3.0, 7.0 + 1e-10, 8.0, 8.5, 9.0])
    policy = PricingPolicy(rng.choice(["static", KLEINROCK]))
    return scn, req, state, policy, rng.random() < 0.5


def _assert_same_build(scn, req, state, snap, shared):
    """build_nl and the reference build give the same outcome, and a built
    model has identical variables and constraints in identical order."""
    try:
        ref = reference_build_nl(scn.net, scn.trust, state, req, snap, shared)
    except UntrustableRequest:
        with pytest.raises(UntrustableRequest):
            build_nl(scn.net, scn.trust, state, req, snap, shared)
        return None
    got = build_nl(scn.net, scn.trust, state, req, snap, shared)
    if isinstance(ref, Blocked):
        assert got == ref
        return ref
    (model, meta), (ref_model, ref_meta) = got, ref
    # repr also tells 1 from 1.0 and 0.0 from -0.0
    assert repr(model.variables) == repr(ref_model.variables)
    assert repr(model.constraints) == repr(ref_model.constraints)
    assert list(meta.x_groups.items()) == list(ref_meta.x_groups.items())
    assert list(meta.y_vars.items()) == list(ref_meta.y_vars.items())
    assert meta.shared == ref_meta.shared == shared
    return got


def test_model_matches_reference_build_row_for_row():
    """The model read off the layered graph is the one the earlier build,
    with its own trust filter and hop layering, made: the same variables
    (names, bounds, objective), the same constraints in the same order, the
    same decode metadata, and the same Blocked reason and detail."""
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    for shared in (False, True):
        assert not isinstance(_assert_same_build(scn, req, state, _snap(scn), shared),
                              Blocked)

    rng = random.Random(25)
    seen = dict.fromkeys(["multi_service", "shared_consecutive", "parallel_links",
                          "loaded", "kleinrock", "nl_accepts",
                          "unreachable_endpoints", "no_placement_nodes",
                          "infeasible"], 0)
    for _ in range(600):
        scn, req, state, policy, shared = _random_nl_instance(rng)
        snap = PriceSnapshot(policy, scn.net, state)
        got = _assert_same_build(scn, req, state, snap, shared)
        if isinstance(got, Blocked):
            seen[got.reason] += 1
            continue
        if got is None:
            continue
        model, meta = got
        seen["multi_service"] += len(req.services) > 1
        seen["shared_consecutive"] += shared and any(
            a == b for svc in req.services
            for a, b in zip(svc.vnf_sequence, svc.vnf_sequence[1:]))
        heads = [(sid, h, scn.net.links[eid].src, scn.net.links[eid].dst)
                 for sid, h, eid in meta.y_vars]
        seen["parallel_links"] += len(set(heads)) < len(heads)
        seen["loaded"] += any(
            svc.bandwidth > state.link_residual(eid) > 0
            for svc in req.services for eid in scn.net.links)
        seen["kleinrock"] += policy.mode == KLEINROCK
        # accept the request and build it again on the loaded ledger
        out = solve_nl(scn.net, scn.trust, state, req, snap,
                       shared_vnf_per_slice=shared)
        if isinstance(out, Embedding):
            state.reserve(req, out, shared_vnf_per_slice=shared)
            _assert_same_build(scn, req, state, PriceSnapshot(policy, scn.net, state),
                               shared)
            seen["nl_accepts"] += 1
    assert min(seen.values()) >= 5, seen


def test_solve_nl_calls_the_seams_through_the_module(monkeypatch):
    """A per-layer profiler times the nl engine by replacing ``build_nl``,
    ``branch_and_bound`` and ``decode_nl`` on ``embed_nl`` and
    ``solve_nl_detailed`` on ``sim``, and reads the model's rows and columns
    from build_nl's result. A simulated nl run must call all four through
    those names, and a built model must come back as (IlpModel, meta)."""
    calls = {(embed_nl, "build_nl"): [], (embed_nl, "branch_and_bound"): [],
             (embed_nl, "decode_nl"): [], (sim, "solve_nl_detailed"): []}
    for (owner, name), seen in calls.items():
        def counting(*args, _seen=seen, _original=getattr(owner, name), **kwargs):
            result = _original(*args, **kwargs)
            _seen.append(result)
            return result
        monkeypatch.setattr(owner, name, counting)
    scn = load_scenario("scenarios/demo_3op.json")
    metrics = sim.run(scn, sim.Workload(rate=2.0, holding=1.0, horizon=4.0, seed=3),
                      engine=sim.NL)
    assert all(calls.values()), {name: len(c) for (_, name), c in calls.items()}
    assert len(calls[(sim, "solve_nl_detailed")]) == metrics.offered_total()
    for built in calls[(embed_nl, "build_nl")]:
        if not isinstance(built, Blocked):
            model, _ = built
            assert isinstance(model, IlpModel) and model.constraints and model.variables

