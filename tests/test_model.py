"""Scenario/request loading, trust semantics and the residual-capacity ledger."""
import copy
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from slicebed.model import (
    LedgerError,
    ResidualState,
    ScenarioError,
    SliceRequest,
    TrustRelation,
    UntrustableRequest,
    allowed_operators,
    check_embedding,
    embedding_footprint,
    load_request,
    load_scenario,
    request_from_dict,
    request_to_dict,
    scenario_from_dict,
)
from slicebed.embed_nl import solve_nl
from slicebed.pricing import PricingPolicy, PriceSnapshot

DEMO = "scenarios/demo_3op.json"
DEMO_REQ = "scenarios/demo_request.json"


@pytest.fixture(scope="module")
def demo():
    return load_scenario(DEMO)


@pytest.fixture(scope="module")
def demo_request(demo):
    return load_request(DEMO_REQ, demo)


def test_demo_scenario_counts(demo):
    net = demo.net
    assert len(net.nodes) == 7
    # undirected input links materialize as directed pairs
    assert len(net.links) == 16
    assert net.function_nodes == (0, 2, 3, 5, 6)
    assert sorted(net.operators) == [1, 2, 3]
    assert sorted(demo.vnfs) == [0, 1, 2]
    assert len(demo.slice_types) == 3


def test_undirected_links_become_directed_pairs(demo):
    net = demo.net
    pairs = {(l.src, l.dst) for l in net.links.values()}
    assert all((b, a) in pairs for a, b in pairs)
    # both directions share capacity value but are distinct capacity pools
    by_ends = {(l.src, l.dst): l for l in net.links.values()}
    fwd, rev = by_ends[(0, 1)], by_ends[(1, 0)]
    assert fwd.id != rev.id
    assert fwd.capacity == rev.capacity
    assert fwd.prop_delay == rev.prop_delay


def test_scenario_validation_rejects_bad_documents(demo):
    base = json.load(open(DEMO))

    doc = copy.deepcopy(base)
    doc["links"][0]["capacity"] = 0.0
    with pytest.raises(ScenarioError, match="capacity"):
        scenario_from_dict(doc)

    doc = copy.deepcopy(base)
    doc["nodes"][0]["operator_id"] = 99
    with pytest.raises(ScenarioError, match="operator"):
        scenario_from_dict(doc)

    doc = copy.deepcopy(base)
    doc["links"][0]["endpoints"] = [0, 0]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)

    doc = copy.deepcopy(base)
    doc["trust"]["1"] = [1, 7]
    with pytest.raises(ScenarioError, match="trust"):
        scenario_from_dict(doc)

    doc = copy.deepcopy(base)
    doc["nodes"][0]["capacity"] = [5.0, 3.0, 1.0]   # scenario has 2 resources
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_request_validation(demo):
    base = json.load(open(DEMO_REQ))

    doc = copy.deepcopy(base)
    doc["services"][0]["sink"] = doc["services"][0]["source"]
    with pytest.raises(ScenarioError):
        request_from_dict(doc, demo)

    # aggregate bandwidth must equal the sum over services that use the vnf
    doc = copy.deepcopy(base)
    doc["vnf_catalog"][0]["agg_bandwidth"] = 9.0
    with pytest.raises(ScenarioError, match="consistency"):
        request_from_dict(doc, demo)

    # allow and deny must not overlap at parse time
    doc = copy.deepcopy(base)
    doc["allow_operators"] = [3]
    doc["deny_operators"] = [3]
    with pytest.raises(ScenarioError, match="disjoint"):
        request_from_dict(doc, demo)

    # every vnf in a chain needs a catalog entry
    doc = copy.deepcopy(base)
    doc["services"][0]["vnf_sequence"] = [0, 2]
    with pytest.raises(ScenarioError):
        request_from_dict(doc, demo)

    # deploy nodes must be function nodes
    doc = copy.deepcopy(base)
    doc["vnf_catalog"][0]["deploy_nodes"] = [1]
    with pytest.raises(ScenarioError, match="function"):
        request_from_dict(doc, demo)


def test_request_rejects_repeated_deploy_node(demo):
    """A repeated deploy node would give the layered graph two processing
    edges for one placement: identical `pl` candidates, and two graph edges
    on one `nl` placement column."""
    doc = json.load(open(DEMO_REQ))
    node = doc["vnf_catalog"][0]["deploy_nodes"][0]
    doc["vnf_catalog"][0]["deploy_nodes"].append(node)
    fid = doc["vnf_catalog"][0]["vnf_id"]
    with pytest.raises(ScenarioError, match=f"vnf {fid}: deployment node {node} "
                                            "is listed twice"):
        request_from_dict(doc, demo)


def test_request_round_trip(demo, demo_request):
    doc = request_to_dict(demo_request)
    again = request_from_dict(doc, demo)
    assert again == demo_request


def test_trust_is_reflexive_not_symmetric(demo):
    t = demo.trust
    for op in (1, 2, 3):
        assert t.trusts(op, op)
    # demo trust: 1->2 but not 2->1
    assert t.trusts(1, 2)
    assert not t.trusts(2, 1)
    assert t.trusted_by(1) == frozenset({1, 2})
    assert t.trusted_by(2) == frozenset({2, 3})


def test_trust_rejects_unknown_operator():
    with pytest.raises(ScenarioError):
        TrustRelation([1, 2], [(1, 5)])


def _request_with(demo, allow=(), deny=(), origin=1):
    doc = json.load(open(DEMO_REQ))
    doc["origin_operator"] = origin
    doc["allow_operators"] = list(allow)
    doc["deny_operators"] = list(deny)
    return request_from_dict(doc, demo)


def test_allowed_operators_deny_wins(demo):
    req = _request_with(demo, allow=[3], deny=[2])
    # origin 1 trusts {1,2}; allow adds 3; deny removes 2 even though trusted
    assert allowed_operators(req, demo.trust) == frozenset({1, 3})
    # overlapping allow/deny can't come from a file; deny still wins in-core
    base = _request_with(demo)
    req = SliceRequest(id=base.id, origin_operator=1,
                       allow_operators=frozenset({3}),
                       deny_operators=frozenset({3}),
                       services=base.services, vnf_catalog=base.vnf_catalog)
    assert allowed_operators(req, demo.trust) == frozenset({1, 2})


def test_allowed_operators_denied_origin_raises(demo):
    req = _request_with(demo, deny=[1])
    with pytest.raises(UntrustableRequest):
        allowed_operators(req, demo.trust)


def test_allowed_operators_isolated_origin(demo):
    # denying every foreign operator leaves exactly the origin: the origin is
    # always in its own trusted set, so the allowed set can never be empty
    # without the origin itself being denied (which raises earlier)
    req = _request_with(demo, deny=[2, 3])
    assert allowed_operators(req, demo.trust) == frozenset({1})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_allowed_operators_monotone_in_trust(data):
    """Adding trust pairs can only grow the allowed set (fixed allow/deny)."""
    ops = [1, 2, 3, 4]
    all_pairs = [(i, j) for i in ops for j in ops if i != j]
    pairs = data.draw(st.sets(st.sampled_from(all_pairs), max_size=8))
    extra = data.draw(st.sets(st.sampled_from(all_pairs), max_size=4))
    origin = data.draw(st.sampled_from(ops))
    allow = data.draw(st.sets(st.sampled_from(ops), max_size=2))
    deny = data.draw(st.sets(st.sampled_from(ops), max_size=2)) - {origin}
    req = SliceRequest(id="h", origin_operator=origin,
                       allow_operators=frozenset(allow),
                       deny_operators=frozenset(deny),
                       services=(), vnf_catalog={})
    small = TrustRelation(ops, pairs)
    big = TrustRelation(ops, pairs | extra)
    try:
        a_small = allowed_operators(req, small)
    except UntrustableRequest:
        return  # empty under the small relation says nothing about the big one
    a_big = allowed_operators(req, big)
    assert a_small <= a_big
    assert origin in a_small
    assert not (a_big & deny)


# ---------------------------------------------------------------------------
# Residual ledger
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_embedding(demo, demo_request):
    state = ResidualState(demo.net)
    snap = PriceSnapshot(PricingPolicy(), demo.net, state)
    emb = solve_nl(demo.net, demo.trust, state, demo_request, snap)
    assert hasattr(emb, "services"), f"demo request should embed, got {emb}"
    return emb


def test_reserve_then_release_restores_state(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    state.reserve(demo_request, demo_embedding)
    assert state.used_bw and state.used_node
    state.release(demo_embedding.slice_id)
    assert state.used_bw == {} and state.used_node == {} and state.active == {}


@settings(max_examples=40, deadline=None)
@given(order=st.permutations([0, 1, 2]))
def test_release_order_does_not_matter(order, demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    ids = []
    for i in range(3):
        emb = demo_embedding.__class__(
            slice_id=f"copy{i}", services=demo_embedding.services,
            total_cost=demo_embedding.total_cost)
        try:
            state.reserve(demo_request, emb)
            ids.append(emb.slice_id)
        except LedgerError:
            break  # capacity exhausted; release what went in
    for i in order:
        if i < len(ids):
            state.release(ids[i])
    assert state.used_bw == {} and state.used_node == {}


def test_ledger_errors(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    state.reserve(demo_request, demo_embedding)
    with pytest.raises(LedgerError, match="already"):
        state.reserve(demo_request, demo_embedding)
    with pytest.raises(LedgerError, match="unknown"):
        state.release("nope")


def test_reserve_rejects_capacity_overflow(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    n = 0
    while True:
        emb = demo_embedding.__class__(
            slice_id=f"n{n}", services=demo_embedding.services,
            total_cost=demo_embedding.total_cost)
        try:
            state.reserve(demo_request, emb)
        except LedgerError:
            break
        n += 1
        assert n < 100, "overflow never triggered"
    assert n >= 1


def test_footprint_shared_vnf_accounting(demo, demo_request, demo_embedding):
    full = embedding_footprint(demo.net, demo_request, demo_embedding)
    shared = embedding_footprint(demo.net, demo_request, demo_embedding,
                                 shared_vnf_per_slice=True)
    # link usage is unaffected by node-side sharing
    assert shared.link_units == full.link_units
    assert sum(shared.node_units.values()) <= sum(full.node_units.values())


def test_check_embedding_accepts_solver_output(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    assert check_embedding(demo.net, demo.trust, state, demo_request,
                           demo_embedding) == []


def test_check_embedding_flags_tampering(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    semb = demo_embedding.services[0]

    # teleporting route: drop one link of a multi-hop route
    for i, route in enumerate(semb.routes):
        if len(route) >= 2:
            routes = list(semb.routes)
            routes[i] = route[1:]
            bad = semb.__class__(service_id=semb.service_id,
                                 placement=semb.placement, routes=tuple(routes),
                                 cost=semb.cost, latency=semb.latency)
            emb = demo_embedding.__class__(slice_id="bad",
                                           services=(bad,) + demo_embedding.services[1:],
                                           total_cost=demo_embedding.total_cost)
            assert check_embedding(demo.net, demo.trust, state,
                                   demo_request, emb)
            break

    # placement outside the deploy set
    placement = dict(semb.placement)
    pos = next(iter(placement))
    fid = demo_request.services[0].vnf_sequence[pos]
    outside = [v for v in demo.net.function_nodes
               if v not in demo_request.vnf_catalog[fid].deploy_nodes]
    if outside:
        placement[pos] = outside[0]
        bad = semb.__class__(service_id=semb.service_id, placement=placement,
                             routes=semb.routes, cost=semb.cost,
                             latency=semb.latency)
        emb = demo_embedding.__class__(slice_id="bad2",
                                       services=(bad,) + demo_embedding.services[1:],
                                       total_cost=demo_embedding.total_cost)
        assert any("deploy" in v for v in
                   check_embedding(demo.net, demo.trust, state, demo_request, emb))


def test_check_embedding_flags_latency_violation(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    tight = request_from_dict({**request_to_dict(demo_request),
                               "services": [
                                   {**s, "max_latency": 0.01}
                                   for s in request_to_dict(demo_request)["services"]
                               ]}, demo)
    violations = check_embedding(demo.net, demo.trust, state, tight, demo_embedding)
    assert any("latency" in v for v in violations)


def test_check_embedding_flags_trust_violation(demo, demo_request, demo_embedding):
    state = ResidualState(demo.net)
    # forbid the operators actually used by the solution
    used_ops = {demo.net.nodes[v].operator_id
                for s in demo_embedding.services for v in s.placement.values()}
    target = sorted(used_ops - {demo_request.origin_operator})
    if not target:
        pytest.skip("solution only uses origin-operator nodes")
    narrowed = _request_with(demo, allow=[], deny=target)
    violations = check_embedding(demo.net, demo.trust, state, narrowed,
                                 demo_embedding)
    assert any("operator" in v or "trust" in v for v in violations)
